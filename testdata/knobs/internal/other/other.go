// Package other declares a config struct that package fix fills in.
package other

// Params is built by fix.Tuned.
type Params struct{ Level int }
