package qos

import (
	"fmt"
	"strings"
)

// ResourceKind enumerates the resource types the cost model and the
// composite QoS API manage (Table 1, system and network rows). The paper's
// prototype managed CPU, network bandwidth and storage (disk) bandwidth via
// GARA; memory buffers are carried as a fourth axis.
type ResourceKind uint8

// Managed resource kinds.
const (
	ResCPU           ResourceKind = iota // fraction of one CPU, 0..1 per core
	ResNetBandwidth                      // bytes per second of server outbound link
	ResDiskBandwidth                     // bytes per second of storage read path
	ResMemory                            // bytes of buffer memory
	NumResourceKinds
)

// String names the resource kind.
func (k ResourceKind) String() string {
	switch k {
	case ResCPU:
		return "cpu"
	case ResNetBandwidth:
		return "net-bw"
	case ResDiskBandwidth:
		return "disk-bw"
	case ResMemory:
		return "memory"
	default:
		return fmt.Sprintf("ResourceKind(%d)", uint8(k))
	}
}

// ResourceVector is the per-kind resource demand of a plan, or the capacity
// or usage of a server. Units are kind-specific (see ResourceKind docs).
// This is the "resource vector" the Plan Generator feeds down the pipeline
// (§3.4) and the input to the LRB cost function (Eq. 1).
type ResourceVector [NumResourceKinds]float64

// FitsWithin reports whether usage+v stays within capacity on every axis.
// This is the admission-control predicate.
func (v ResourceVector) FitsWithin(usage, capacity ResourceVector) bool {
	for i := range v {
		if usage[i]+v[i] > capacity[i]+1e-9 {
			return false
		}
	}
	return true
}

// MaxFillRatio returns max_i (usage_i + v_i) / capacity_i — the LRB cost
// function of Eq. 1 applied to this demand under the given usage. Axes with
// zero capacity and zero demand are skipped; zero capacity with positive
// demand is treated as infinitely expensive.
func (v ResourceVector) MaxFillRatio(usage, capacity ResourceVector) float64 {
	var worst float64
	for i := range v {
		if capacity[i] <= 0 {
			if v[i] > 0 {
				return inf
			}
			continue
		}
		r := (usage[i] + v[i]) / capacity[i]
		if r > worst {
			worst = r
		}
	}
	return worst
}

// SumRatio returns sum_i (v_i / capacity_i), a normalized total-demand
// metric used by the greedy-min-sum ablation cost model.
func (v ResourceVector) SumRatio(capacity ResourceVector) float64 {
	var sum float64
	for i := range v {
		if capacity[i] <= 0 {
			if v[i] > 0 {
				return inf
			}
			continue
		}
		sum += v[i] / capacity[i]
	}
	return sum
}

const inf = 1e308

// String renders the vector with unit-appropriate formatting.
func (v ResourceVector) String() string {
	parts := make([]string, 0, NumResourceKinds)
	for k := ResourceKind(0); k < NumResourceKinds; k++ {
		switch k {
		case ResCPU:
			parts = append(parts, fmt.Sprintf("cpu=%.3f", v[k]))
		case ResMemory:
			parts = append(parts, fmt.Sprintf("mem=%.0fB", v[k]))
		default:
			parts = append(parts, fmt.Sprintf("%s=%.0fB/s", k, v[k]))
		}
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// CatalogEntry is one row of the paper's Table 1: a QoS parameter and the
// level it belongs to.
type CatalogEntry struct {
	Level     string // "application", "system", "network"
	Parameter string
}

// Catalog returns the QoS parameter taxonomy of Table 1. It is data, not
// behaviour — kept so documentation, tests and the qsqctl help screen agree
// on the vocabulary.
func Catalog() []CatalogEntry {
	return []CatalogEntry{
		{"application", "Frame Width"},
		{"application", "Frame Height"},
		{"application", "Color Resolution"},
		{"application", "Time Guarantee"},
		{"application", "Signal-to-noise ratio (SNR)"},
		{"application", "Security"},
		{"system", "CPU cycles"},
		{"system", "Memory buffer"},
		{"system", "Disk space and bandwidth"},
		{"network", "Delay"},
		{"network", "Jitter"},
		{"network", "Reliability"},
		{"network", "Packet loss"},
		{"network", "Network Topology"},
		{"network", "Bandwidth"},
	}
}
