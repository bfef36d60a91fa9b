package storage

import (
	"errors"
	"fmt"
)

// BlobID identifies a stored media blob on one server.
type BlobID uint32

// ErrNoSuchBlob reports access to an unknown blob.
var ErrNoSuchBlob = errors.New("storage: no such blob")

// Blob is a stored media object: the physical bytes behind one replica.
// Only its size is kept: delivery is priced from bitrates and frame sizes,
// and nothing reads a blob's content, so the store accounts space and holds
// no byte.
type Blob struct {
	ID   BlobID
	Size int64
}

// BlobStore tracks the media blobs resident on one server's disk and their
// total footprint — the "storage space" concern of the paper's replication
// discussion (§2, item 1).
type BlobStore struct {
	next  BlobID
	blobs map[BlobID]*Blob
	used  int64
	quota int64 // 0 = unlimited
}

// ErrDiskFull reports that storing a blob would exceed the disk quota.
var ErrDiskFull = errors.New("storage: disk quota exceeded")

// NewBlobStore creates a blob store with the given byte quota (0 = no
// limit).
func NewBlobStore(quota int64) *BlobStore {
	return &BlobStore{blobs: make(map[BlobID]*Blob), quota: quota}
}

// Create registers a blob of the given size.
func (s *BlobStore) Create(size int64) (*Blob, error) {
	if size < 0 {
		return nil, fmt.Errorf("storage: negative blob size %d", size)
	}
	if s.quota > 0 && s.used+size > s.quota {
		return nil, ErrDiskFull
	}
	s.next++
	b := &Blob{ID: s.next, Size: size}
	s.blobs[b.ID] = b
	s.used += size
	return b, nil
}

// Delete removes a blob and reclaims its space.
func (s *BlobStore) Delete(id BlobID) error {
	b, ok := s.blobs[id]
	if !ok {
		return ErrNoSuchBlob
	}
	delete(s.blobs, id)
	s.used -= b.Size
	return nil
}

// Used returns the total bytes of stored blobs.
func (s *BlobStore) Used() int64 { return s.used }

// Count returns the number of stored blobs.
func (s *BlobStore) Count() int { return len(s.blobs) }
