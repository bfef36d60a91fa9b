package faults

import "testing"

// FuzzFaultSchedule: every input either parses or returns an error (never
// panics), every accepted link factor lies in (0,1], and an accepted
// schedule re-parses from its String form to exactly the same events.
func FuzzFaultSchedule(f *testing.F) {
	for _, seed := range []string{
		// The package-doc example.
		`# offset  kind           target   [arg]
120s      node-crash     srv-b
300s      node-restart   srv-b
50s       link-degrade   srv-a    0.5
80s       link-congest   srv-a    0.6
400s      link-restore   srv-a
200s      link-partition srv-c
250s      lease-revoke   srv-a`,
		"1s link-degrade srv-a NaN",
		"1s link-congest srv-a 1e-300\n2.5ms link-restore srv-a # cleared",
		"0s node-crash srv-a extra args",
		"-1s node-crash srv-a",
		"10s link-degrade srv-a 0x1p-2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSchedule(text)
		if err != nil {
			return
		}
		for i, e := range s {
			if (e.Kind == LinkDegrade || e.Kind == LinkCongest) && !(e.Factor > 0 && e.Factor <= 1) {
				t.Fatalf("event %d: accepted factor %v outside (0,1]", i, e.Factor)
			}
		}
		again, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", s.String(), err)
		}
		if len(again) != len(s) {
			t.Fatalf("re-parse has %d events, want %d", len(again), len(s))
		}
		for i := range s {
			if again[i] != s[i] {
				t.Fatalf("event %d: re-parse gave %+v, want %+v", i, again[i], s[i])
			}
		}
	})
}
