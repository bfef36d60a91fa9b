// Package fix declares a config struct set each way the knob scan tells
// apart: only inside its own package's defaulting functions, never, and
// everywhere else a set can happen.
package fix

import "quasaq/internal/other"

// Config is tuned by its own defaulting functions, by Run and by main.
type Config struct {
	Defaulted  int   // set only by DefaultConfig
	Normalized int   // set only by normalize
	Unset      int   // set by no code
	Assigned   int   // assigned by main
	Elsewhere  int   // set by main's own defaulting function
	Tuned      int   // set by Tuned, which returns another package's config
	Keyed      int   // set as a composite-literal key in Run
	Bound      int   // its address taken in Run, as a flag binding takes it
	Appended   []int // appended to in Run
}

// Policy is set only by the unkeyed literal in Run, which sets every field.
type Policy struct{ Level int }

// T is no config struct: nothing sets its field, and the scan ignores it.
type T struct{ Unset int }

// DefaultConfig returns the defaults.
func DefaultConfig() Config { return Config{Defaulted: 1} }

// normalize fills the zero fields.
func (c *Config) normalize() {
	if c.Normalized == 0 {
		c.Normalized = 1
	}
}

// Tuned returns another package's config struct, so it is no defaulting
// function of this package: its set of Config.Tuned is a set like any other.
func Tuned() other.Params {
	c := Config{Tuned: 1}
	return other.Params{Level: c.Tuned}
}

// Run sets the remaining fields and reads them all.
func Run(c Config) int {
	c.normalize()
	d := DefaultConfig()
	e := Config{Keyed: 1}
	p := &c.Bound
	*p = 2
	c.Appended = append(c.Appended, 3)
	pol := Policy{4}
	var t T
	return c.Defaulted + c.Normalized + c.Unset + c.Assigned + c.Elsewhere + d.Defaulted +
		e.Keyed + c.Bound + len(c.Appended) + pol.Level + t.Unset + Tuned().Level
}
