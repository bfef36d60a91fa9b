// Package cryptoact implements the encryption server activity (set A5 in
// the paper's Figure 2). Plans may require the stream to be encrypted when
// the query demands a security level (Table 1 lists Security among the
// application QoS parameters); each algorithm trades CPU for strength. No
// byte is encrypted: the plan generator prices an algorithm by its CPU
// cost, and the delivery charges that cost as CPU time per frame.
package cryptoact

import "quasaq/internal/qos"

// Algorithm describes one encryption choice.
type Algorithm struct {
	// Name identifies the algorithm in plans and logs.
	Name string
	// Level is the security level the algorithm provides.
	Level qos.SecurityLevel
	// Throughput is the sustainable encryption rate in bytes per second on
	// the testbed CPU class; CPU cost of a stream is bitrate/Throughput.
	Throughput float64
}

// Catalog lists the supported algorithms, weakest first. Throughputs are
// calibrated to early-2000s, ~2.4 GHz x86 measurements: stream-cipher XOR
// is nearly free, single AES manages tens of MB/s, and the triple-pass
// "strong" mode costs roughly 3x AES.
func Catalog() []Algorithm {
	return []Algorithm{
		{Name: "xor-stream", Level: qos.SecurityStandard, Throughput: 400e6},
		{Name: "aes-ctr", Level: qos.SecurityStandard, Throughput: 60e6},
		{Name: "aes-ctr-x3", Level: qos.SecurityStrong, Throughput: 20e6},
	}
}

// ForLevel returns the algorithms providing at least the given level
// (none for SecurityNone: an unencrypted stream needs no activity).
func ForLevel(level qos.SecurityLevel) []Algorithm {
	if level == qos.SecurityNone {
		return nil
	}
	var out []Algorithm
	for _, a := range Catalog() {
		if a.Level >= level {
			out = append(out, a)
		}
	}
	return out
}

// CPUCost returns the CPU fraction needed to encrypt a stream of the given
// bitrate (bytes per second) in real time.
func (a Algorithm) CPUCost(bitrate float64) float64 {
	if a.Throughput <= 0 {
		return 0
	}
	return bitrate / a.Throughput
}
