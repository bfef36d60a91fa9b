package storage

import (
	"bytes"
	"fmt"
	"testing"
)

// TestHeapAppendPastPageBoundaryMidScan pins the Scan contract the qoe log
// depends on: Scan iterates the page list as snapshotted at scan start, so
// records appended mid-scan onto *new* pages are not visited, while every
// record that existed at scan start is. Appends that land in leftover free
// space of a not-yet-visited snapshotted page may be seen — either way the
// scan terminates and never yields a duplicate or torn record.
func TestHeapAppendPastPageBoundaryMidScan(t *testing.T) {
	vol := NewVolume(1)
	pool := NewBufferPool(vol, 64)
	heap := NewHeapFile(pool, vol)

	rec := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 900) }
	const before = 20 // ~900B records, 8 per 8KB page -> 3 pages
	baseline := make(map[OID]bool)
	for i := 0; i < before; i++ {
		oid, err := heap.Insert(rec(i))
		if err != nil {
			t.Fatal(err)
		}
		baseline[oid] = true
	}
	pagesBefore := len(vol.pages)

	const extra = 30 // grows the heap several pages past the boundary
	visited := make(map[OID]int)
	grown := false
	err := heap.Scan(func(oid OID, data []byte) bool {
		if len(data) != 900 {
			t.Fatalf("torn record %v: %d bytes", oid, len(data))
		}
		for _, b := range data {
			if b != data[0] {
				t.Fatalf("corrupt record %v", oid)
			}
		}
		visited[oid]++
		if !grown {
			grown = true
			for i := 0; i < extra; i++ {
				if _, err := heap.Insert(rec(100 + i)); err != nil {
					t.Fatal(err)
				}
			}
			if len(vol.pages) <= pagesBefore {
				t.Fatalf("mid-scan growth stayed within %d pages", pagesBefore)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for oid, n := range visited {
		if n != 1 {
			t.Fatalf("record %v visited %d times", oid, n)
		}
	}
	for oid := range baseline {
		if visited[oid] == 0 {
			t.Fatalf("pre-existing record %v skipped by mid-growth scan", oid)
		}
	}
	if len(visited) > before+extra {
		t.Fatalf("scan saw %d records, more than ever inserted", len(visited))
	}
	if n := heapLen(t, heap); n != before+extra {
		t.Fatalf("post-scan Len = %d, want %d", n, before+extra)
	}
}

// TestBTreeDuplicateKeyAppendGrowth drives the time-index shape of the qoe
// table — monotone and heavily duplicated int64 keys — far past one leaf
// page, then checks Range sees every entry in key order.
func TestBTreeDuplicateKeyAppendGrowth(t *testing.T) {
	vol := NewVolume(2)
	pool := NewBufferPool(vol, 128)
	tree, err := NewBTree(pool, vol)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		// Bursts of identical timestamps: 10 entries per key.
		key := int64(i / 10)
		if err := tree.Insert(key, OID{Volume: 2, Page: PageID(i / 7), Slot: uint16(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	last := int64(-1)
	if err := tree.Range(0, int64(n), func(k int64, _ OID) bool {
		if k < last {
			t.Fatalf("keys out of order: %d after %d", k, last)
		}
		last = k
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("Range saw %d entries, want %d", count, n)
	}
	// A window range matching one duplicate burst.
	burst := 0
	if err := tree.Range(123, 123, func(int64, OID) bool { burst++; return true }); err != nil {
		t.Fatal(err)
	}
	if burst != 10 {
		t.Fatalf("duplicate burst = %d entries, want 10", burst)
	}
}

// TestAppendHeavyFlushReadBack grows a qoe-style heap+index well past
// several page boundaries, cycles the pool through fresh pages so every
// dirty frame is evicted and written back, and verifies every record and
// index entry reads back byte-for-byte through a fresh pool over the same
// volume, so the pages that reached the volume are complete.
func TestAppendHeavyFlushReadBack(t *testing.T) {
	vol := NewVolume(3)
	pool := NewBufferPool(vol, 128)
	heap := NewHeapFile(pool, vol)
	tree, err := NewBTree(pool, vol)
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		oid OID
		key int64
	}
	var entries []entry
	for i := 0; i < 1500; i++ {
		payload := []byte(fmt.Sprintf("qoe-%05d|metric=loss|avg=%d", i, i*3))
		oid, err := heap.Insert(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Insert(int64(i%97), oid); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, entry{oid, int64(i % 97)})
	}
	for i := 0; i < 128; i++ { // one pin per frame evicts every older frame
		id := vol.Alloc()
		if _, err := pool.Pin(id); err != nil {
			t.Fatal(err)
		}
		if err := pool.Unpin(id, false); err != nil {
			t.Fatal(err)
		}
	}
	rpool := NewBufferPool(vol, 128)
	for i, e := range entries {
		page, err := rpool.Pin(e.oid.Page)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := page.Get(int(e.oid.Slot))
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		want := fmt.Sprintf("qoe-%05d|metric=loss|avg=%d", i, i*3)
		if string(rec) != want {
			t.Fatalf("record %d corrupted: %q", i, rec)
		}
		rpool.Unpin(e.oid.Page, false)
	}
	rtree := &BTree{pool: rpool, vol: vol, root: tree.root}
	count := 0
	if err := rtree.Range(0, 96, func(int64, OID) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != len(entries) {
		t.Fatalf("read-back index has %d entries, want %d", count, len(entries))
	}
}
