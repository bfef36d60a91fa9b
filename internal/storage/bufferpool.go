package storage

import (
	"container/list"
	"errors"
	"fmt"
)

// ErrPoolExhausted reports that every frame in the buffer pool is pinned.
var ErrPoolExhausted = errors.New("storage: buffer pool exhausted (all frames pinned)")

// BufferPool caches volume pages with LRU replacement and pin counting, in
// the style of Shore's buffer manager. A pinned frame is never evicted;
// dirty frames are written back on eviction.
type BufferPool struct {
	vol  *Volume
	size int

	frames map[PageID]*frame
	lru    *list.List // unpinned frames, front = least recently used
	hits   uint64
	misses uint64
}

type frame struct {
	id    PageID
	page  *Page
	pins  int
	dirty bool
	elem  *list.Element // non-nil while unpinned and evictable
}

// NewBufferPool wraps a volume with a pool of size frames.
func NewBufferPool(vol *Volume, size int) *BufferPool {
	if size <= 0 {
		panic("storage: non-positive buffer pool size")
	}
	return &BufferPool{
		vol:    vol,
		size:   size,
		frames: make(map[PageID]*frame, size),
		lru:    list.New(),
	}
}

// Pin fetches page id, reading it from the volume on a miss, and pins it.
// Every Pin must be matched by an Unpin.
func (bp *BufferPool) Pin(id PageID) (*Page, error) {
	if f, ok := bp.frames[id]; ok {
		bp.hits++
		if f.elem != nil {
			bp.lru.Remove(f.elem)
			f.elem = nil
		}
		f.pins++
		return f.page, nil
	}
	bp.misses++
	if len(bp.frames) >= bp.size {
		if err := bp.evict(); err != nil {
			return nil, err
		}
	}
	page, err := bp.vol.ReadPage(id)
	if err != nil {
		return nil, err
	}
	f := &frame{id: id, page: page, pins: 1}
	bp.frames[id] = f
	return page, nil
}

// Unpin releases one pin on page id; dirty marks the page as modified so it
// is written back before eviction.
func (bp *BufferPool) Unpin(id PageID, dirty bool) error {
	f, ok := bp.frames[id]
	if !ok || f.pins == 0 {
		return fmt.Errorf("storage: unpin of unpinned page %d", id)
	}
	f.dirty = f.dirty || dirty
	f.pins--
	if f.pins == 0 {
		f.elem = bp.lru.PushBack(f)
	}
	return nil
}

func (bp *BufferPool) evict() error {
	e := bp.lru.Front()
	if e == nil {
		return ErrPoolExhausted
	}
	f := e.Value.(*frame)
	bp.lru.Remove(e)
	if f.dirty {
		if err := bp.vol.WritePage(f.id, f.page); err != nil {
			return err
		}
	}
	delete(bp.frames, f.id)
	return nil
}

// Stats returns cumulative hit and miss counts.
func (bp *BufferPool) Stats() (hits, misses uint64) { return bp.hits, bp.misses }
