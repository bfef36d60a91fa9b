// Command knobs is the fixture module TestKnobsOnlyTestsTurnFlagsDefaults
// scans: it tunes package fix's config from outside that package.
package main

import "quasaq/internal/fix"

// Options is this package's own config struct, which makes defaults a
// defaulting function here; its set of a fix.Config field is a set like any
// other.
type Options struct{ Fix fix.Config }

func defaults() Options { return Options{Fix: fix.Config{Elsewhere: 1}} }

func main() {
	c := defaults().Fix
	c.Assigned = 2
	fix.Run(c)
}
