// Package storage is the reproduction's stand-in for the Shore storage
// manager underlying VDBMS (§4): slotted pages, a pinning buffer pool,
// heap files addressed by physical OIDs, and blob extents for media
// replicas. PREDATOR-level code (the vdbms package) never touches pages
// directly; it goes through HeapFile and BlobStore, exactly as PREDATOR
// went through Shore.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// PageSize is the fixed page size in bytes (Shore used 8 KB pages).
const PageSize = 8192

const (
	pageHeaderSize = 4 // nslots(2) + freeStart(2)
	slotEntrySize  = 4 // offset(2) + length(2)
)

// Errors returned by page and heap operations.
var (
	ErrPageFull     = errors.New("storage: page full")
	ErrNoSuchRecord = errors.New("storage: no such record")
	ErrRecordTooBig = errors.New("storage: record exceeds page capacity")
)

// Page is a slotted data page. Records grow from the header forward; the
// slot directory grows from the end backward. Records never move, so slot
// numbers (and the OIDs built from them) stay valid.
type Page struct {
	buf [PageSize]byte
}

// NewPage returns an initialized empty page.
func NewPage() *Page {
	p := &Page{}
	p.setNumSlots(0)
	p.setFreeStart(pageHeaderSize)
	return p
}

func (p *Page) numSlots() int      { return int(binary.LittleEndian.Uint16(p.buf[0:2])) }
func (p *Page) setNumSlots(n int)  { binary.LittleEndian.PutUint16(p.buf[0:2], uint16(n)) }
func (p *Page) freeStart() int     { return int(binary.LittleEndian.Uint16(p.buf[2:4])) }
func (p *Page) setFreeStart(n int) { binary.LittleEndian.PutUint16(p.buf[2:4], uint16(n)) }

func (p *Page) slotPos(slot int) int { return PageSize - (slot+1)*slotEntrySize }

func (p *Page) slot(slot int) (off, length int) {
	pos := p.slotPos(slot)
	return int(binary.LittleEndian.Uint16(p.buf[pos : pos+2])),
		int(binary.LittleEndian.Uint16(p.buf[pos+2 : pos+4]))
}

func (p *Page) setSlot(slot, off, length int) {
	pos := p.slotPos(slot)
	binary.LittleEndian.PutUint16(p.buf[pos:pos+2], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[pos+2:pos+4], uint16(length))
}

// MaxRecord is the largest record a single page can hold.
const MaxRecord = PageSize - pageHeaderSize - slotEntrySize

// Insert stores rec and returns its slot number. It fails with ErrPageFull
// when the page lacks room, or ErrRecordTooBig when no page could hold rec.
func (p *Page) Insert(rec []byte) (int, error) {
	if len(rec) > MaxRecord {
		return 0, ErrRecordTooBig
	}
	slot := p.numSlots()
	if PageSize-(slot+1)*slotEntrySize-p.freeStart() < len(rec) {
		return 0, ErrPageFull
	}
	off := p.freeStart()
	copy(p.buf[off:], rec)
	p.setFreeStart(off + len(rec))
	p.setNumSlots(slot + 1)
	p.setSlot(slot, off, len(rec))
	return slot, nil
}

// Get returns the record in slot. The returned slice aliases the page;
// callers must copy it if they outlive the pin.
func (p *Page) Get(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.numSlots() {
		return nil, ErrNoSuchRecord
	}
	off, length := p.slot(slot)
	return p.buf[off : off+length], nil
}

// Slots returns the slot directory size; Scan callers iterate [0, Slots()).
func (p *Page) Slots() int { return p.numSlots() }

// Bytes exposes the raw page image for volume I/O.
func (p *Page) Bytes() []byte { return p.buf[:] }

// LoadPage reconstructs a page from a raw image.
func LoadPage(img []byte) (*Page, error) {
	if len(img) != PageSize {
		return nil, fmt.Errorf("storage: page image is %d bytes, want %d", len(img), PageSize)
	}
	p := &Page{}
	copy(p.buf[:], img)
	return p, nil
}
