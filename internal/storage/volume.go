package storage

import (
	"errors"
	"fmt"
)

// PageID addresses a page within a volume.
type PageID uint32

// OID is a physical object identifier in Shore's style: it names a concrete
// stored record (volume, page, slot). QuaSAQ's metadata layer maps logical
// video OIDs to these (§4: "these OIDs refer to the video content ... rather
// than the entity in storage").
type OID struct {
	Volume uint16
	Page   PageID
	Slot   uint16
}

// String renders the OID as vol.page.slot.
func (o OID) String() string { return fmt.Sprintf("%d.%d.%d", o.Volume, o.Page, o.Slot) }

// ErrNoSuchPage reports access to an unallocated page.
var ErrNoSuchPage = errors.New("storage: no such page")

// Volume is the persistent page store of one server: an append-allocated
// array of page images. It stands in for a Shore volume on
// a raw disk; images live in memory but are only reachable through page
// reads, keeping the buffer pool honest.
type Volume struct {
	id uint16

	pages [][]byte
}

// NewVolume creates an empty volume with the given id.
func NewVolume(id uint16) *Volume {
	return &Volume{id: id}
}

// ID returns the volume id used in OIDs.
func (v *Volume) ID() uint16 { return v.id }

// Alloc allocates a zeroed, initialized page and returns its id.
func (v *Volume) Alloc() PageID {
	img := make([]byte, PageSize)
	copy(img, NewPage().Bytes())
	v.pages = append(v.pages, img)
	return PageID(len(v.pages) - 1)
}

// ReadPage copies the stored image of page id into a fresh Page.
func (v *Volume) ReadPage(id PageID) (*Page, error) {
	if int(id) >= len(v.pages) {
		return nil, ErrNoSuchPage
	}
	return LoadPage(v.pages[id])
}

// WritePage stores the page image under id.
func (v *Volume) WritePage(id PageID, p *Page) error {
	if int(id) >= len(v.pages) {
		return ErrNoSuchPage
	}
	copy(v.pages[id], p.Bytes())
	return nil
}
