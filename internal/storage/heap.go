package storage

import "fmt"

// HeapFile is an unordered record file over a buffer pool: the storage for
// catalog tables and metadata records. Records are addressed by OID and
// never move between pages, so OIDs handed to upper layers stay valid.
type HeapFile struct {
	pool *BufferPool
	vol  *Volume

	pages []PageID // pages owned by this file, in allocation order
}

// NewHeapFile creates an empty heap file on the volume behind pool.
func NewHeapFile(pool *BufferPool, vol *Volume) *HeapFile {
	return &HeapFile{pool: pool, vol: vol}
}

// Insert stores rec and returns its OID.
func (h *HeapFile) Insert(rec []byte) (OID, error) {
	if len(rec) > MaxRecord {
		return OID{}, ErrRecordTooBig
	}
	// Try the most recently allocated pages first; metadata workloads are
	// append-mostly, so this finds space in O(1) almost always.
	for i := len(h.pages) - 1; i >= 0 && i >= len(h.pages)-2; i-- {
		if oid, ok, err := h.tryInsert(h.pages[i], rec); err != nil {
			return OID{}, err
		} else if ok {
			return oid, nil
		}
	}
	id := h.vol.Alloc()
	h.pages = append(h.pages, id)
	oid, ok, err := h.tryInsert(id, rec)
	if err != nil {
		return OID{}, err
	}
	if !ok {
		return OID{}, fmt.Errorf("storage: fresh page rejected %d-byte record", len(rec))
	}
	return oid, nil
}

func (h *HeapFile) tryInsert(id PageID, rec []byte) (OID, bool, error) {
	page, err := h.pool.Pin(id)
	if err != nil {
		return OID{}, false, err
	}
	slot, err := page.Insert(rec)
	if err == ErrPageFull {
		if uerr := h.pool.Unpin(id, false); uerr != nil {
			return OID{}, false, uerr
		}
		return OID{}, false, nil
	}
	if err != nil {
		h.pool.Unpin(id, false)
		return OID{}, false, err
	}
	if err := h.pool.Unpin(id, true); err != nil {
		return OID{}, false, err
	}
	return OID{Volume: h.vol.ID(), Page: id, Slot: uint16(slot)}, true, nil
}

// Get returns a copy of the record at oid.
func (h *HeapFile) Get(oid OID) ([]byte, error) {
	if oid.Volume != h.vol.ID() {
		return nil, fmt.Errorf("storage: OID %v is not on volume %d", oid, h.vol.ID())
	}
	page, err := h.pool.Pin(oid.Page)
	if err != nil {
		return nil, err
	}
	defer h.pool.Unpin(oid.Page, false)
	rec, err := page.Get(int(oid.Slot))
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(rec))
	copy(out, rec)
	return out, nil
}

// Scan calls fn with each record (and its OID) in file order. fn's
// record slice is only valid during the call. Scanning stops early if fn
// returns false.
func (h *HeapFile) Scan(fn func(OID, []byte) bool) error {
	for _, id := range h.pages {
		page, err := h.pool.Pin(id)
		if err != nil {
			return err
		}
		for s := 0; s < page.Slots(); s++ {
			rec, err := page.Get(s)
			if err != nil {
				h.pool.Unpin(id, false)
				return err
			}
			if !fn(OID{Volume: h.vol.ID(), Page: id, Slot: uint16(s)}, rec) {
				return h.pool.Unpin(id, false)
			}
		}
		if err := h.pool.Unpin(id, false); err != nil {
			return err
		}
	}
	return nil
}
