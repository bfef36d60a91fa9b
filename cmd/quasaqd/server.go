package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"quasaq"
)

// Server exposes a DB over a line-oriented TCP protocol. Each request is
// one line; each response is zero or more payload lines followed by a
// terminator line that is either "OK" or "ERR <message>".
//
// Commands:
//
//	SITES
//	VIDEOS
//	CATALOG
//	EXPLAIN <sql>
//	SEARCH <sql>
//	QUERY <site> <sql>
//	PLAY <site> <video-id> <tier: dvd|tv|vcd|low>
//	STATUS
//	QUIT
//
// The virtual clock advances with wall time (scaled by speed), so PLAY
// results progress between STATUS calls like a real media server's would.
type Server struct {
	mu    sync.Mutex
	db    *quasaq.DB
	speed float64
	begun time.Time
	stop  chan struct{}
}

// NewServer wraps a database; speed is virtual seconds per wall second.
func NewServer(db *quasaq.DB, speed float64) *Server {
	if speed <= 0 {
		speed = 1
	}
	return &Server{db: db, speed: speed, begun: time.Now(), stop: make(chan struct{})}
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(ln net.Listener) error {
	go s.tick()
	for {
		conn, err := ln.Accept()
		if err != nil {
			close(s.stop)
			return err
		}
		go s.handle(conn)
	}
}

// tick advances the virtual clock alongside the wall clock.
func (s *Server) tick() {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.mu.Lock()
			target := quasaq.Time(float64(time.Since(s.begun)) * s.speed)
			if target > s.db.Now() {
				s.db.Advance(target - s.db.Now())
			}
			s.mu.Unlock()
		}
	}
}

// maxLine caps one request line; a longer one gets an ERR reply and the
// connection is closed, since the rest of the line cannot be resynchronised.
const maxLine = 64 * 1024

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, maxLine), maxLine)
	w := bufio.NewWriter(conn)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.EqualFold(line, "QUIT") {
			fmt.Fprintln(w, "OK")
			w.Flush()
			return
		}
		s.mu.Lock()
		reply := s.dispatch(line)
		s.mu.Unlock()
		w.WriteString(reply)
		w.Flush()
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		w.WriteString(errf("line too long (max %d bytes)", maxLine))
		w.Flush()
	}
}

// dispatch executes one command line and returns the full response text.
func (s *Server) dispatch(line string) string {
	cmd, rest, _ := strings.Cut(line, " ")
	switch strings.ToUpper(cmd) {
	case "SITES":
		return ok(strings.Join(s.db.Sites(), "\n"))
	case "VIDEOS":
		var b strings.Builder
		for _, v := range s.db.Videos() {
			fmt.Fprintf(&b, "%s %-28s %8s %6.4g fps [%s]\n",
				v.ID, v.Title, v.Duration, v.FrameRate, strings.Join(v.Tags, ","))
		}
		return ok(strings.TrimRight(b.String(), "\n"))
	case "CATALOG":
		// The QoS parameter taxonomy of the paper's Table 1.
		var b strings.Builder
		for _, e := range quasaq.QoSCatalog() {
			fmt.Fprintf(&b, "%-12s %s\n", e.Level, e.Parameter)
		}
		return ok(strings.TrimRight(b.String(), "\n"))
	case "EXPLAIN":
		if rest == "" {
			return errf("EXPLAIN needs a query")
		}
		out, err := s.db.Explain(rest)
		if err != nil {
			return errf("%v", err)
		}
		return ok(out)
	case "SEARCH":
		if rest == "" {
			return errf("SEARCH needs a query")
		}
		res, err := s.db.Search(rest)
		if err != nil {
			return errf("%v", err)
		}
		var b strings.Builder
		for _, r := range res {
			fmt.Fprintf(&b, "%s %-28s dist=%.4f\n", r.Video.ID, r.Video.Title, r.Distance)
		}
		return ok(strings.TrimRight(b.String(), "\n"))
	case "QUERY":
		site, sql, found := strings.Cut(rest, " ")
		if !found {
			return errf("QUERY needs <site> <sql>")
		}
		qr, err := s.db.Query(site, sql)
		if err != nil {
			return errf("%v", err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "matches: %d\n", len(qr.Matches))
		if qr.Delivery != nil {
			fmt.Fprintf(&b, "plan: %s\n", qr.Delivery.Plan)
			fmt.Fprintf(&b, "delivered: %v\n", qr.Delivery.Plan.Delivered)
		}
		return ok(strings.TrimRight(b.String(), "\n"))
	case "PLAY":
		parts := strings.Fields(rest)
		if len(parts) != 3 {
			return errf("PLAY needs <site> <video-id> <tier>")
		}
		id, err := parseVideoID(parts[1])
		if err != nil {
			return errf("%v", err)
		}
		req, err := tierRequirement(parts[2])
		if err != nil {
			return errf("%v", err)
		}
		d, err := s.db.Deliver(parts[0], id, req)
		if err != nil {
			return errf("%v", err)
		}
		return ok(fmt.Sprintf("plan: %s\ndelivered: %v", d.Plan, d.Plan.Delivered))
	case "STATUS":
		st := s.db.Stats()
		var b strings.Builder
		fmt.Fprintf(&b, "t=%v queries=%d admitted=%d rejected=%d outstanding=%d\n",
			s.db.Now().Truncate(time.Millisecond), st.Queries, st.Admitted, st.Rejected, st.Outstanding)
		for _, site := range s.db.Sites() {
			u, c, err := s.db.SiteUsage(site)
			if err != nil {
				return errf("site usage: %v", err)
			}
			fmt.Fprintf(&b, "%s: net %.1f%% cpu %.1f%% disk %.1f%%\n",
				site, pct(u[1], c[1]), pct(u[0], c[0]), pct(u[2], c[2]))
		}
		return ok(strings.TrimRight(b.String(), "\n"))
	default:
		return errf("unknown command %q", cmd)
	}
}

func pct(u, c float64) float64 {
	if c <= 0 {
		return 0
	}
	return 100 * u / c
}

func ok(payload string) string {
	if payload == "" {
		return "OK\n"
	}
	return payload + "\nOK\n"
}

func errf(format string, args ...any) string {
	return "ERR " + fmt.Sprintf(format, args...) + "\n"
}

func parseVideoID(s string) (quasaq.VideoID, error) {
	n, err := strconv.Atoi(strings.TrimPrefix(strings.ToLower(s), "v"))
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad video id %q", s)
	}
	return quasaq.VideoID(n), nil
}

// tierRequirement maps the CLI quality tiers to requirements, mirroring the
// workload generator's QoP grid.
func tierRequirement(tier string) (quasaq.Requirement, error) {
	prof := quasaq.DefaultProfile("qsqctl")
	switch strings.ToLower(tier) {
	case "dvd":
		return prof.Translate(quasaq.QoP{Spatial: quasaq.SpatialDVD, Temporal: quasaq.TemporalSmooth, Color: quasaq.ColorTrue}), nil
	case "tv":
		return prof.Translate(quasaq.QoP{Spatial: quasaq.SpatialTV, Temporal: quasaq.TemporalStandard, Color: quasaq.ColorTrue}), nil
	case "vcd":
		return prof.Translate(quasaq.QoP{Spatial: quasaq.SpatialVCD, Temporal: quasaq.TemporalStandard, Color: quasaq.ColorBasic}), nil
	case "low":
		return prof.Translate(quasaq.QoP{Spatial: quasaq.SpatialLow, Temporal: quasaq.TemporalStandard, Color: quasaq.ColorGray}), nil
	default:
		return quasaq.Requirement{}, fmt.Errorf("unknown tier %q (dvd|tv|vcd|low)", tier)
	}
}
