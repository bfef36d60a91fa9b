package storage

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestPageInsertGet(t *testing.T) {
	p := NewPage()
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	var slots []int
	for _, r := range recs {
		s, err := p.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	for i, s := range slots {
		got, err := p.Get(s)
		if err != nil || !bytes.Equal(got, recs[i]) {
			t.Fatalf("slot %d: got %q err %v", s, got, err)
		}
	}
}

func TestPageFull(t *testing.T) {
	p := NewPage()
	rec := make([]byte, 1000)
	n := 0
	for {
		if _, err := p.Insert(rec); err == ErrPageFull {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 8 { // 8*1000 + 8*4 slot entries + 4 header < 8192; 9th cannot fit
		t.Fatalf("fit %d 1000-byte records, want 8", n)
	}
}

func TestPageRecordTooBig(t *testing.T) {
	p := NewPage()
	if _, err := p.Insert(make([]byte, MaxRecord+1)); err != ErrRecordTooBig {
		t.Fatalf("err = %v, want ErrRecordTooBig", err)
	}
	if _, err := p.Insert(make([]byte, MaxRecord)); err != nil {
		t.Fatalf("max-size record rejected: %v", err)
	}
}

func TestPageRoundTripThroughImage(t *testing.T) {
	p := NewPage()
	s, _ := p.Insert([]byte("persisted"))
	q, err := LoadPage(p.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := q.Get(s); !bytes.Equal(got, []byte("persisted")) {
		t.Fatal("page image round trip lost data")
	}
	if _, err := LoadPage(make([]byte, 100)); err == nil {
		t.Fatal("short image accepted")
	}
}

func TestPagePropertyInsertGetMany(t *testing.T) {
	if err := quick.Check(func(payloads [][]byte) bool {
		p := NewPage()
		want := map[int][]byte{}
		for _, r := range payloads {
			if len(r) > 512 {
				r = r[:512]
			}
			s, err := p.Insert(r)
			if err != nil {
				break
			}
			want[s] = append([]byte(nil), r...)
		}
		for s, w := range want {
			got, err := p.Get(s)
			if err != nil || !bytes.Equal(got, w) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVolumeAlloc(t *testing.T) {
	v := NewVolume(1)
	a := v.Alloc()
	b := v.Alloc()
	if a == b {
		t.Fatal("duplicate page ids")
	}
	if _, err := v.ReadPage(99); err != ErrNoSuchPage {
		t.Fatal("reading unallocated page should fail")
	}
}

func TestBufferPoolHitsAndEviction(t *testing.T) {
	v := NewVolume(1)
	var ids []PageID
	for i := 0; i < 5; i++ {
		ids = append(ids, v.Alloc())
	}
	bp := NewBufferPool(v, 2)
	for _, id := range ids[:2] {
		if _, err := bp.Pin(id); err != nil {
			t.Fatal(err)
		}
		if err := bp.Unpin(id, false); err != nil {
			t.Fatal(err)
		}
	}
	// Re-pin first: hit.
	if _, err := bp.Pin(ids[0]); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(ids[0], false)
	hits, misses := bp.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 1/2", hits, misses)
	}
	// Fill beyond capacity: LRU (ids[1]) evicted.
	if _, err := bp.Pin(ids[2]); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(ids[2], false)
	if len(bp.frames) != 2 {
		t.Fatalf("resident = %d, want 2", len(bp.frames))
	}
}

func TestBufferPoolWritebackOnEviction(t *testing.T) {
	v := NewVolume(1)
	a, b := v.Alloc(), v.Alloc()
	bp := NewBufferPool(v, 1)
	page, err := bp.Pin(a)
	if err != nil {
		t.Fatal(err)
	}
	slot, _ := page.Insert([]byte("dirty"))
	bp.Unpin(a, true)
	// Pinning b evicts a, which must write back.
	if _, err := bp.Pin(b); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(b, false)
	fresh, err := v.ReadPage(a)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := fresh.Get(slot); !bytes.Equal(got, []byte("dirty")) {
		t.Fatal("dirty page not written back on eviction")
	}
}

func TestBufferPoolExhaustion(t *testing.T) {
	v := NewVolume(1)
	a, b := v.Alloc(), v.Alloc()
	bp := NewBufferPool(v, 1)
	if _, err := bp.Pin(a); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Pin(b); err != ErrPoolExhausted {
		t.Fatalf("err = %v, want ErrPoolExhausted", err)
	}
	if err := bp.Unpin(a, false); err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(a, false); err == nil {
		t.Fatal("double unpin accepted")
	}
}

func newTestHeap(poolSize int) (*HeapFile, *Volume) {
	v := NewVolume(3)
	return NewHeapFile(NewBufferPool(v, poolSize), v), v
}

func TestHeapInsertGet(t *testing.T) {
	h, _ := newTestHeap(8)
	oid, err := h.Insert([]byte("record"))
	if err != nil {
		t.Fatal(err)
	}
	if oid.Volume != 3 {
		t.Fatalf("oid volume = %d, want 3", oid.Volume)
	}
	got, err := h.Get(oid)
	if err != nil || !bytes.Equal(got, []byte("record")) {
		t.Fatalf("get: %q %v", got, err)
	}
}

func TestHeapWrongVolume(t *testing.T) {
	h, _ := newTestHeap(8)
	if _, err := h.Get(OID{Volume: 9, Page: 0, Slot: 0}); err == nil {
		t.Fatal("cross-volume OID accepted")
	}
}

func TestHeapManyRecordsSpanPages(t *testing.T) {
	h, v := newTestHeap(4)
	rec := make([]byte, 700)
	oids := make([]OID, 0, 200)
	for i := 0; i < 200; i++ {
		copy(rec, fmt.Sprintf("rec-%d", i))
		oid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if len(v.pages) < 10 {
		t.Fatalf("200 x 700B records in %d pages — spanning broken", len(v.pages))
	}
	for i, oid := range oids {
		got, err := h.Get(oid)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		want := fmt.Sprintf("rec-%d", i)
		if string(got[:len(want)]) != want {
			t.Fatalf("record %d corrupted", i)
		}
	}
	if n := heapLen(t, h); n != 200 {
		t.Fatalf("len = %d, want 200", n)
	}
}

// heapLen counts the heap's live records by a full scan.
func heapLen(t *testing.T, h *HeapFile) int {
	t.Helper()
	n := 0
	if err := h.Scan(func(OID, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestHeapScanEarlyStop(t *testing.T) {
	h, _ := newTestHeap(8)
	for i := 0; i < 10; i++ {
		h.Insert([]byte{byte(i)})
	}
	n := 0
	h.Scan(func(OID, []byte) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("scan visited %d, want 3", n)
	}
}

func TestBlobStoreQuota(t *testing.T) {
	s := NewBlobStore(1000)
	a, err := s.Create(600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(600); err != ErrDiskFull {
		t.Fatalf("over-quota create = %v, want ErrDiskFull", err)
	}
	if err := s.Delete(a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(600); err != nil {
		t.Fatalf("create after reclaim failed: %v", err)
	}
	if s.Count() != 1 || s.Used() != 600 {
		t.Fatalf("count/used = %d/%d", s.Count(), s.Used())
	}
	if err := s.Delete(999); err != ErrNoSuchBlob {
		t.Fatal("deleting unknown blob should fail")
	}
}

func TestOIDString(t *testing.T) {
	oid := OID{Volume: 1, Page: 22, Slot: 3}
	if oid.String() != "1.22.3" {
		t.Fatalf("oid string = %q", oid.String())
	}
}
