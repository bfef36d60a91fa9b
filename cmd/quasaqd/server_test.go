package main

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"

	"quasaq"
)

// loadedDB opens the database quasaqd serves by default: the standard
// corpus at its default seed.
func loadedDB(tb testing.TB) *quasaq.DB {
	tb.Helper()
	db, err := quasaq.Open(quasaq.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := db.AddVideos(quasaq.StandardCorpus(42)); err != nil {
		tb.Fatal(err)
	}
	return db
}

// startTestServer runs a server on an ephemeral port with a frozen clock
// (speed tiny so ticks do not interfere with assertions).
func startTestServer(t *testing.T) net.Addr {
	t.Helper()
	db := loadedDB(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := NewServer(db, 1e-9)
	go srv.Serve(ln)
	return ln.Addr()
}

// roundTrip sends one command and returns payload lines and the terminator.
func roundTrip(t *testing.T, addr net.Addr, cmd string) ([]string, string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintln(conn, cmd)
	var lines []string
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		line := sc.Text()
		if line == "OK" || strings.HasPrefix(line, "ERR ") {
			return lines, line
		}
		lines = append(lines, line)
	}
	t.Fatalf("no terminator for %q (got %v)", cmd, lines)
	return nil, ""
}

func TestSitesAndVideos(t *testing.T) {
	addr := startTestServer(t)
	lines, term := roundTrip(t, addr, "SITES")
	if term != "OK" || len(lines) != 3 {
		t.Fatalf("SITES -> %v %q", lines, term)
	}
	lines, term = roundTrip(t, addr, "VIDEOS")
	if term != "OK" || len(lines) != 15 {
		t.Fatalf("VIDEOS -> %d lines, %q", len(lines), term)
	}
	if !strings.Contains(lines[0], "v001") {
		t.Fatalf("first video line: %q", lines[0])
	}
}

func TestSearchCommand(t *testing.T) {
	addr := startTestServer(t)
	lines, term := roundTrip(t, addr, "SEARCH SELECT * FROM videos WHERE tags CONTAINS 'medical'")
	if term != "OK" || len(lines) != 5 {
		t.Fatalf("SEARCH -> %d lines, %q", len(lines), term)
	}
	_, term = roundTrip(t, addr, "SEARCH garbage query")
	if !strings.HasPrefix(term, "ERR ") {
		t.Fatalf("bad SQL terminator: %q", term)
	}
}

func TestQueryCommand(t *testing.T) {
	addr := startTestServer(t)
	lines, term := roundTrip(t, addr,
		"QUERY srv-a SELECT * FROM videos WHERE id = 1 WITH QOS (resolution >= VCD, resolution <= CIF)")
	if term != "OK" {
		t.Fatalf("QUERY failed: %q", term)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "matches: 1") || !strings.Contains(joined, "plan:") {
		t.Fatalf("QUERY output: %s", joined)
	}
}

func TestPlayAndStatus(t *testing.T) {
	addr := startTestServer(t)
	lines, term := roundTrip(t, addr, "PLAY srv-a v001 vcd")
	if term != "OK" {
		t.Fatalf("PLAY failed: %v %q", lines, term)
	}
	lines, term = roundTrip(t, addr, "STATUS")
	if term != "OK" {
		t.Fatalf("STATUS failed: %q", term)
	}
	if !strings.Contains(lines[0], "outstanding=1") {
		t.Fatalf("status after PLAY: %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("status should list 3 sites: %v", lines)
	}
}

func TestPlayErrors(t *testing.T) {
	addr := startTestServer(t)
	cases := []string{
		"PLAY srv-a v001",       // missing tier
		"PLAY srv-a vxx vcd",    // bad id
		"PLAY srv-a v001 ultra", // bad tier
		"PLAY srv-z v001 vcd",   // bad site
		"PLAY srv-a v099 vcd",   // unknown video
	}
	for _, c := range cases {
		if _, term := roundTrip(t, addr, c); !strings.HasPrefix(term, "ERR ") {
			t.Errorf("%q accepted: %q", c, term)
		}
	}
}

func TestExplainCommand(t *testing.T) {
	addr := startTestServer(t)
	lines, term := roundTrip(t, addr, "EXPLAIN SELECT * FROM videos WHERE id = 3")
	if term != "OK" || len(lines) != 1 || !strings.Contains(lines[0], "index scan") {
		t.Fatalf("EXPLAIN -> %v %q", lines, term)
	}
	if _, term := roundTrip(t, addr, "EXPLAIN"); !strings.HasPrefix(term, "ERR ") {
		t.Fatal("empty EXPLAIN accepted")
	}
}

func TestUnknownCommandAndQuit(t *testing.T) {
	addr := startTestServer(t)
	if _, term := roundTrip(t, addr, "FROB x"); !strings.HasPrefix(term, "ERR ") {
		t.Fatalf("unknown command: %q", term)
	}
	if _, term := roundTrip(t, addr, "QUIT"); term != "OK" {
		t.Fatalf("QUIT: %q", term)
	}
}

func TestTierRequirements(t *testing.T) {
	for _, tier := range []string{"dvd", "tv", "vcd", "low"} {
		req, err := tierRequirement(tier)
		if err != nil {
			t.Fatalf("%s: %v", tier, err)
		}
		if tier != "low" && req.MinResolution.W == 0 {
			t.Fatalf("%s: no min resolution", tier)
		}
	}
	if _, err := tierRequirement("4k"); err == nil {
		t.Fatal("bad tier accepted")
	}
}

func TestParseVideoID(t *testing.T) {
	for _, s := range []string{"v007", "7", "V007"} {
		id, err := parseVideoID(s)
		if err != nil || id != 7 {
			t.Fatalf("%q -> %v %v", s, id, err)
		}
	}
	for _, s := range []string{"", "vv1", "-3", "v0"} {
		if _, err := parseVideoID(s); err == nil {
			t.Fatalf("%q accepted", s)
		}
	}
	// The error quotes the token as typed, prefix and case included.
	if _, err := parseVideoID("V0"); err == nil || err.Error() != `bad video id "V0"` {
		t.Fatalf("V0 -> %v", err)
	}
}

// TestOverlongLineGetsErr: a request longer than the line cap is answered
// with an ERR terminator, not dropped with the connection.
func TestOverlongLineGetsErr(t *testing.T) {
	addr := startTestServer(t)
	_, term := roundTrip(t, addr, "SEARCH "+strings.Repeat("x", 70000))
	if term != "ERR line too long (max 65536 bytes)" {
		t.Fatalf("overlong line -> %q", term)
	}
}

func TestCatalogCommand(t *testing.T) {
	addr := startTestServer(t)
	lines, term := roundTrip(t, addr, "CATALOG")
	if term != "OK" || len(lines) != 15 {
		t.Fatalf("CATALOG -> %d lines, %q (want Table 1's 15 rows)", len(lines), term)
	}
	if !strings.Contains(lines[0], "application") {
		t.Fatalf("first row: %q", lines[0])
	}
}
