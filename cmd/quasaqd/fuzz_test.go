package main

import (
	"bufio"
	"fmt"
	"strings"
	"testing"
)

// FuzzDispatch drives arbitrary request lines through Server.dispatch on one
// loaded database and checks the framing qsqctl relies on. Read the way
// qsqctl reads it, a reply is either exactly one "ERR ..." line, or payload
// lines followed by a final "OK" line, where no payload line equals "OK" or
// starts with "ERR ". Seeds are every verb the server tests use, plus
// title, tag, similarity, explain and play requests for each video of the
// standard corpus.
func FuzzDispatch(f *testing.F) {
	db := loadedDB(f)
	srv := NewServer(db, 1e-9)
	seeds := []string{
		"SITES", "VIDEOS", "CATALOG", "STATUS", "QUIT", "FROB x",
		"EXPLAIN", "EXPLAIN SELECT * FROM videos WHERE id = 3",
		"SEARCH", "SEARCH garbage query",
		"SEARCH SELECT * FROM videos WHERE tags CONTAINS 'medical'",
		"QUERY srv-a",
		"QUERY srv-a SELECT * FROM videos WHERE id = 1 WITH QOS (resolution >= VCD, resolution <= CIF)",
		"QUERY srv-a SELECT * FROM videos WITH QOS (",
		"PLAY srv-a v001 vcd", "PLAY srv-a v001", "PLAY srv-a vxx vcd",
		"PLAY srv-a v001 ultra", "PLAY srv-z v001 vcd", "PLAY srv-a v099 vcd",
	}
	const qosClause = " WITH QOS (resolution >= VCD, resolution <= CIF, depth >= 8, fps >= 20)"
	quote := func(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }
	sites := db.Sites()
	for i, v := range db.Videos() {
		site := sites[i%len(sites)]
		seeds = append(seeds,
			"QUERY "+site+" SELECT * FROM videos WHERE title = "+quote(v.Title)+qosClause,
			"SEARCH SELECT * FROM videos SIMILAR TO "+quote(v.ID.String())+" LIMIT 3"+qosClause,
			fmt.Sprintf("EXPLAIN SELECT * FROM videos WHERE id = %d", v.ID),
			fmt.Sprintf("PLAY %s %s tv", site, v.ID))
		for _, tag := range v.Tags {
			seeds = append(seeds, "QUERY "+site+" SELECT * FROM videos WHERE tags CONTAINS "+quote(tag)+qosClause)
		}
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		// handle passes dispatch one trimmed, non-empty line of a scan
		// split on newlines.
		line = strings.TrimSpace(line)
		if line == "" || strings.Contains(line, "\n") {
			return
		}
		reply := srv.dispatch(line)
		sc := bufio.NewScanner(strings.NewReader(reply))
		sc.Buffer(make([]byte, maxLine), maxLine)
		var lines []string
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("%q: reply unreadable: %v", line, err)
		}
		if len(lines) == 0 || !strings.HasSuffix(reply, "\n") {
			t.Fatalf("%q: reply %q is not newline-terminated lines", line, reply)
		}
		last := lines[len(lines)-1]
		switch {
		case strings.HasPrefix(last, "ERR "):
			if len(lines) != 1 {
				t.Fatalf("%q: ERR reply has %d lines: %q", line, len(lines), reply)
			}
		case last == "OK":
			for _, l := range lines[:len(lines)-1] {
				if l == "OK" || strings.HasPrefix(l, "ERR ") {
					t.Fatalf("%q: payload line %q reads as a terminator", line, l)
				}
			}
		default:
			t.Fatalf("%q: reply ends with %q, not OK or ERR", line, last)
		}
	})
}
