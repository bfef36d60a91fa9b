package cryptoact

import (
	"testing"

	"quasaq/internal/qos"
)

func TestCatalogOrderedByStrengthCost(t *testing.T) {
	algs := Catalog()
	if len(algs) != 3 {
		t.Fatalf("catalog size = %d", len(algs))
	}
	for i := 1; i < len(algs); i++ {
		if algs[i].Throughput > algs[i-1].Throughput {
			t.Fatal("catalog not ordered by decreasing throughput")
		}
	}
}

func TestForLevel(t *testing.T) {
	if got := ForLevel(qos.SecurityNone); got != nil {
		t.Fatalf("SecurityNone should need no algorithm, got %v", got)
	}
	std := ForLevel(qos.SecurityStandard)
	if len(std) != 3 {
		t.Fatalf("standard options = %d, want 3", len(std))
	}
	strong := ForLevel(qos.SecurityStrong)
	if len(strong) != 1 || strong[0].Name != "aes-ctr-x3" {
		t.Fatalf("strong options = %v", strong)
	}
}

func TestCPUCost(t *testing.T) {
	aes := Catalog()[1]
	// A 476 KB/s DVD-quality stream through 60 MB/s AES: ~0.8% CPU.
	c := aes.CPUCost(476e3)
	if c < 0.005 || c > 0.02 {
		t.Fatalf("AES cost = %v, want ~0.008", c)
	}
	strong := Catalog()[2]
	if strong.CPUCost(476e3) <= c {
		t.Fatal("strong encryption should cost more CPU")
	}
}
