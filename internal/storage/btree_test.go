package storage

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func newTree(t *testing.T, poolSize int) *BTree {
	t.Helper()
	vol := NewVolume(7)
	tree, err := NewBTree(NewBufferPool(vol, poolSize), vol)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// search returns every value stored under key, through a point range scan.
func search(tree *BTree, key int64) ([]OID, error) {
	var out []OID
	err := tree.Range(key, key, func(_ int64, v OID) bool {
		out = append(out, v)
		return true
	})
	return out, err
}

// treeLen counts the tree's entries by a full range scan.
func treeLen(t *testing.T, tree *BTree) int {
	t.Helper()
	n := 0
	if err := tree.Range(math.MinInt64, math.MaxInt64, func(int64, OID) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	return n
}

func oidFor(i int) OID {
	return OID{Volume: 7, Page: PageID(i / 100), Slot: uint16(i % 100)}
}

func TestBTreeInsertSearchSmall(t *testing.T) {
	tree := newTree(t, 16)
	for i := 0; i < 100; i++ {
		if err := tree.Insert(int64(i*3), oidFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := treeLen(t, tree); n != 100 {
		t.Fatalf("len = %d", n)
	}
	for i := 0; i < 100; i++ {
		got, err := search(tree, int64(i*3))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != oidFor(i) {
			t.Fatalf("key %d: got %v", i*3, got)
		}
	}
	if got, _ := search(tree, 1); len(got) != 0 {
		t.Fatalf("absent key found: %v", got)
	}
}

func TestBTreeSplitsAndHeightGrowth(t *testing.T) {
	tree := newTree(t, 64)
	// Enough entries to force several leaf splits and at least one root
	// split (leafCap = 511).
	const n = 20000
	for i := 0; i < n; i++ {
		if err := tree.Insert(int64(i), oidFor(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	root, err := tree.pool.Pin(tree.root)
	if err != nil {
		t.Fatal(err)
	}
	leafRoot := nodeIsLeaf(root.Bytes())
	if err := tree.pool.Unpin(tree.root, false); err != nil {
		t.Fatal(err)
	}
	if leafRoot {
		t.Fatalf("root is still a leaf after %d inserts", n)
	}
	for _, probe := range []int{0, 1, 510, 511, 512, 9999, n - 1} {
		got, err := search(tree, int64(probe))
		if err != nil || len(got) != 1 || got[0] != oidFor(probe) {
			t.Fatalf("probe %d: %v %v", probe, got, err)
		}
	}
}

func TestBTreeReverseAndRandomOrder(t *testing.T) {
	for name, order := range map[string]func(n int) []int{
		"reverse": func(n int) []int {
			out := make([]int, n)
			for i := range out {
				out[i] = n - 1 - i
			}
			return out
		},
		"random": func(n int) []int {
			return rand.New(rand.NewSource(1)).Perm(n)
		},
	} {
		t.Run(name, func(t *testing.T) {
			tree := newTree(t, 64)
			const n = 5000
			for _, k := range order(n) {
				if err := tree.Insert(int64(k), oidFor(k)); err != nil {
					t.Fatal(err)
				}
			}
			// Full range scan must be sorted and complete.
			var keys []int64
			if err := tree.Range(-1, int64(n), func(k int64, _ OID) bool {
				keys = append(keys, k)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(keys) != n {
				t.Fatalf("scan found %d/%d", len(keys), n)
			}
			if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
				t.Fatal("range scan out of order")
			}
		})
	}
}

func TestBTreeDuplicateKeys(t *testing.T) {
	tree := newTree(t, 32)
	for i := 0; i < 800; i++ {
		if err := tree.Insert(42, oidFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := search(tree, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 800 {
		t.Fatalf("duplicates found = %d, want 800 (spilling across leaves)", len(got))
	}
	seen := map[OID]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatal("duplicate OID returned twice")
		}
		seen[v] = true
	}
}

func TestBTreeRangeScan(t *testing.T) {
	tree := newTree(t, 32)
	for i := 0; i < 1000; i++ {
		tree.Insert(int64(i*2), oidFor(i)) // even keys 0..1998
	}
	var got []int64
	if err := tree.Range(100, 120, func(k int64, _ OID) bool {
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []int64{100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120}
	if len(got) != len(want) {
		t.Fatalf("range = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range = %v", got)
		}
	}
	// Early stop.
	count := 0
	tree.Range(0, 1998, func(int64, OID) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
	// Empty and inverted ranges.
	if err := tree.Range(3, 3, func(int64, OID) bool { t.Fatal("odd key matched"); return true }); err != nil {
		t.Fatal(err)
	}
	if err := tree.Range(10, 5, func(int64, OID) bool { t.Fatal("inverted range matched"); return true }); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeNegativeKeys(t *testing.T) {
	tree := newTree(t, 16)
	for _, k := range []int64{-1000, -1, 0, 1, 1000} {
		tree.Insert(k, oidFor(int(k&0xFF)))
	}
	var keys []int64
	tree.Range(-2000, 2000, func(k int64, _ OID) bool { keys = append(keys, k); return true })
	if len(keys) != 5 || keys[0] != -1000 || keys[4] != 1000 {
		t.Fatalf("keys = %v", keys)
	}
}

func TestBTreePropertyMatchesMap(t *testing.T) {
	// Property: after an arbitrary sequence of inserts the tree agrees with
	// a reference multimap.
	if err := quick.Check(func(keys []uint8) bool {
		tree := newTree(t, 64)
		ref := map[int64][]OID{}
		for seq, key := range keys {
			k := int64(key % 32) // dense keys to exercise duplicates
			v := oidFor(seq + 1)
			ref[k] = append(ref[k], v)
			if err := tree.Insert(k, v); err != nil {
				return false
			}
		}
		for k, vs := range ref {
			got, err := search(tree, k)
			if err != nil || len(got) != len(vs) {
				return false
			}
		}
		total := 0
		for _, vs := range ref {
			total += len(vs)
		}
		return treeLen(t, tree) == total
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	vol := NewVolume(7)
	tree, _ := NewBTree(NewBufferPool(vol, 256), vol)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Insert(int64(i), oidFor(i))
	}
}

func BenchmarkBTreeSearch(b *testing.B) {
	vol := NewVolume(7)
	tree, _ := NewBTree(NewBufferPool(vol, 256), vol)
	for i := 0; i < 100000; i++ {
		tree.Insert(int64(i), oidFor(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search(tree, int64(i%100000))
	}
}
