package storage

import (
	"encoding/binary"
	"fmt"
)

// BTree is a page-based B+tree mapping int64 keys to OIDs, in the style of
// Shore's B-tree access method. The vdbms engine builds one per indexed
// catalog column (id, duration) so content-phase predicates do not scan.
//
// Duplicate keys are allowed (secondary indexes need them). Leaves are
// chained for range scans. The tree only grows: rows are appended and
// never deleted, so leaves never underflow.
type BTree struct {
	pool *BufferPool
	vol  *Volume
	root PageID
}

// Node layout within a raw page (the slotted-page header is not used):
//
//	byte 0      : node type (0 = leaf, 1 = internal)
//	bytes 1-2   : number of keys (uint16)
//	bytes 4-7   : leaf only: right-sibling page id + 1 (0 = none)
//	bytes 8...  : payload
//
// Leaf payload: n x [key int64 | oid 8 bytes].
// Internal payload: child0 uint32, then n x [key int64 | child uint32].
const (
	btHeader   = 8
	leafEntry  = 16
	innerEntry = 12
	// Capacities derived from the page size.
	leafCap  = (PageSize - btHeader) / leafEntry
	innerCap = (PageSize - btHeader - 4) / innerEntry
)

// NewBTree creates an empty tree on the volume behind pool.
func NewBTree(pool *BufferPool, vol *Volume) (*BTree, error) {
	t := &BTree{pool: pool, vol: vol}
	root := vol.Alloc()
	page, err := pool.Pin(root)
	if err != nil {
		return nil, err
	}
	initLeaf(page.Bytes())
	if err := pool.Unpin(root, true); err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

func initLeaf(b []byte) {
	for i := range b[:btHeader] {
		b[i] = 0
	}
	b[0] = 0
}

func initInner(b []byte) {
	for i := range b[:btHeader] {
		b[i] = 0
	}
	b[0] = 1
}

func nodeIsLeaf(b []byte) bool { return b[0] == 0 }
func nodeKeys(b []byte) int    { return int(binary.LittleEndian.Uint16(b[1:3])) }
func setNodeKeys(b []byte, n int) {
	binary.LittleEndian.PutUint16(b[1:3], uint16(n))
}
func leafNext(b []byte) (PageID, bool) {
	v := binary.LittleEndian.Uint32(b[4:8])
	if v == 0 {
		return 0, false
	}
	return PageID(v - 1), true
}
func setLeafNext(b []byte, id PageID, ok bool) {
	if !ok {
		binary.LittleEndian.PutUint32(b[4:8], 0)
		return
	}
	binary.LittleEndian.PutUint32(b[4:8], uint32(id)+1)
}

func leafKey(b []byte, i int) int64 {
	off := btHeader + i*leafEntry
	return int64(binary.LittleEndian.Uint64(b[off : off+8]))
}
func leafVal(b []byte, i int) OID {
	off := btHeader + i*leafEntry + 8
	return OID{
		Volume: binary.LittleEndian.Uint16(b[off : off+2]),
		Page:   PageID(binary.LittleEndian.Uint32(b[off+2 : off+6])),
		Slot:   binary.LittleEndian.Uint16(b[off+6 : off+8]),
	}
}
func setLeafEntry(b []byte, i int, k int64, v OID) {
	off := btHeader + i*leafEntry
	binary.LittleEndian.PutUint64(b[off:off+8], uint64(k))
	binary.LittleEndian.PutUint16(b[off+8:off+10], v.Volume)
	binary.LittleEndian.PutUint32(b[off+10:off+14], uint32(v.Page))
	binary.LittleEndian.PutUint16(b[off+14:off+16], v.Slot)
}

func innerChild(b []byte, i int) PageID {
	if i == 0 {
		return PageID(binary.LittleEndian.Uint32(b[btHeader : btHeader+4]))
	}
	off := btHeader + 4 + (i-1)*innerEntry + 8
	return PageID(binary.LittleEndian.Uint32(b[off : off+4]))
}
func innerKey(b []byte, i int) int64 {
	off := btHeader + 4 + i*innerEntry
	return int64(binary.LittleEndian.Uint64(b[off : off+8]))
}
func setInnerChild0(b []byte, id PageID) {
	binary.LittleEndian.PutUint32(b[btHeader:btHeader+4], uint32(id))
}
func setInnerEntry(b []byte, i int, k int64, child PageID) {
	off := btHeader + 4 + i*innerEntry
	binary.LittleEndian.PutUint64(b[off:off+8], uint64(k))
	binary.LittleEndian.PutUint32(b[off+8:off+12], uint32(child))
}

// leafLowerBound returns the first index whose key >= k.
func leafLowerBound(b []byte, k int64) int {
	lo, hi := 0, nodeKeys(b)
	for lo < hi {
		mid := (lo + hi) / 2
		if leafKey(b, mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// innerDescend returns the child index to follow for key k: the number of
// separators strictly below k. Equal separators send the descent LEFT, so
// a search lands on the leftmost leaf that can hold k — necessary because
// duplicate keys may span several leaves, which forward chaining then
// covers.
func innerDescend(b []byte, k int64) int {
	lo, hi := 0, nodeKeys(b)
	for lo < hi {
		mid := (lo + hi) / 2
		if innerKey(b, mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds (key, value). Duplicates are permitted.
func (t *BTree) Insert(key int64, value OID) error {
	sepKey, newChild, split, err := t.insertAt(t.root, key, value)
	if err != nil {
		return err
	}
	if split {
		// Root split: grow the tree.
		newRoot := t.vol.Alloc()
		page, err := t.pool.Pin(newRoot)
		if err != nil {
			return err
		}
		b := page.Bytes()
		initInner(b)
		setInnerChild0(b, t.root)
		setInnerEntry(b, 0, sepKey, newChild)
		setNodeKeys(b, 1)
		if err := t.pool.Unpin(newRoot, true); err != nil {
			return err
		}
		t.root = newRoot
	}
	return nil
}

// insertAt inserts into the subtree rooted at id. On split it returns the
// separator key and the new right sibling's page id.
func (t *BTree) insertAt(id PageID, key int64, value OID) (int64, PageID, bool, error) {
	page, err := t.pool.Pin(id)
	if err != nil {
		return 0, 0, false, err
	}
	b := page.Bytes()
	if nodeIsLeaf(b) {
		sep, right, split, err := t.insertLeaf(b, key, value)
		uerr := t.pool.Unpin(id, true)
		if err == nil {
			err = uerr
		}
		return sep, right, split, err
	}
	idx := innerDescend(b, key)
	child := innerChild(b, idx)
	// Recurse without holding the parent pinned-dirty unnecessarily; we
	// re-pin after, since the child may split and need a new separator.
	if err := t.pool.Unpin(id, false); err != nil {
		return 0, 0, false, err
	}
	sep, right, split, err := t.insertAt(child, key, value)
	if err != nil || !split {
		return 0, 0, false, err
	}
	page, err = t.pool.Pin(id)
	if err != nil {
		return 0, 0, false, err
	}
	b = page.Bytes()
	sep2, right2, split2 := t.insertInner(b, idx, sep, right)
	if err := t.pool.Unpin(id, true); err != nil {
		return 0, 0, false, err
	}
	return sep2, right2, split2, nil
}

func (t *BTree) insertLeaf(b []byte, key int64, value OID) (int64, PageID, bool, error) {
	n := nodeKeys(b)
	pos := leafLowerBound(b, key)
	if n < leafCap {
		for i := n; i > pos; i-- {
			setLeafEntry(b, i, leafKey(b, i-1), leafVal(b, i-1))
		}
		setLeafEntry(b, pos, key, value)
		setNodeKeys(b, n+1)
		return 0, 0, false, nil
	}
	// Split: move the upper half to a new right sibling.
	rightID := t.vol.Alloc()
	rp, err := t.pool.Pin(rightID)
	if err != nil {
		return 0, 0, false, err
	}
	rb := rp.Bytes()
	initLeaf(rb)
	mid := n / 2
	for i := mid; i < n; i++ {
		setLeafEntry(rb, i-mid, leafKey(b, i), leafVal(b, i))
	}
	setNodeKeys(rb, n-mid)
	setNodeKeys(b, mid)
	// Chain: right inherits the old next, left points to right.
	nxt, ok := leafNext(b)
	setLeafNext(rb, nxt, ok)
	setLeafNext(b, rightID, true)
	// Insert into the appropriate half.
	sep := leafKey(rb, 0)
	if key < sep {
		t.insertLeafNoSplit(b, key, value)
	} else {
		t.insertLeafNoSplit(rb, key, value)
	}
	if err := t.pool.Unpin(rightID, true); err != nil {
		return 0, 0, false, err
	}
	return sep, rightID, true, nil
}

func (t *BTree) insertLeafNoSplit(b []byte, key int64, value OID) {
	n := nodeKeys(b)
	pos := leafLowerBound(b, key)
	for i := n; i > pos; i-- {
		setLeafEntry(b, i, leafKey(b, i-1), leafVal(b, i-1))
	}
	setLeafEntry(b, pos, key, value)
	setNodeKeys(b, n+1)
}

// insertInner inserts (sep, right) after child index idx, splitting when
// full.
func (t *BTree) insertInner(b []byte, idx int, sep int64, right PageID) (int64, PageID, bool) {
	n := nodeKeys(b)
	if n < innerCap {
		for i := n; i > idx; i-- {
			setInnerEntry(b, i, innerKey(b, i-1), innerChild(b, i))
		}
		setInnerEntry(b, idx, sep, right)
		setNodeKeys(b, n+1)
		return 0, 0, false
	}
	// Split the internal node: middle key moves up.
	rightID := t.vol.Alloc()
	rp, err := t.pool.Pin(rightID)
	if err != nil {
		// Allocation/pin failures here leave the tree consistent (the
		// entry simply is not inserted); propagate via panic is unkind,
		// so treat as fatal programming error: the pool sized for the
		// tree must accommodate three pins.
		panic(fmt.Sprintf("storage: btree inner split pin: %v", err))
	}
	rb := rp.Bytes()
	initInner(rb)

	// Materialize the would-be entry list, then redistribute.
	type ent struct {
		k int64
		c PageID
	}
	ents := make([]ent, 0, n+1)
	for i := 0; i < n; i++ {
		ents = append(ents, ent{innerKey(b, i), innerChild(b, i+1)})
	}
	ents = append(ents[:idx], append([]ent{{sep, right}}, ents[idx:]...)...)
	mid := len(ents) / 2
	up := ents[mid]

	child0 := innerChild(b, 0)
	setNodeKeys(b, 0)
	setInnerChild0(b, child0)
	for i, e := range ents[:mid] {
		setInnerEntry(b, i, e.k, e.c)
	}
	setNodeKeys(b, mid)

	setInnerChild0(rb, up.c)
	for i, e := range ents[mid+1:] {
		setInnerEntry(rb, i, e.k, e.c)
	}
	setNodeKeys(rb, len(ents)-mid-1)
	if err := t.pool.Unpin(rightID, true); err != nil {
		panic(fmt.Sprintf("storage: btree inner split unpin: %v", err))
	}
	return up.k, rightID, true
}

// findLeaf descends to the leaf that would contain key.
func (t *BTree) findLeaf(key int64) (PageID, error) {
	id := t.root
	for {
		page, err := t.pool.Pin(id)
		if err != nil {
			return 0, err
		}
		b := page.Bytes()
		if nodeIsLeaf(b) {
			if err := t.pool.Unpin(id, false); err != nil {
				return 0, err
			}
			return id, nil
		}
		next := innerChild(b, innerDescend(b, key))
		if err := t.pool.Unpin(id, false); err != nil {
			return 0, err
		}
		id = next
	}
}

// Range calls fn for each entry with lo <= key <= hi in key order,
// stopping early if fn returns false.
func (t *BTree) Range(lo, hi int64, fn func(int64, OID) bool) error {
	if hi < lo {
		return nil
	}
	id, err := t.findLeaf(lo)
	if err != nil {
		return err
	}
	for {
		page, err := t.pool.Pin(id)
		if err != nil {
			return err
		}
		b := page.Bytes()
		n := nodeKeys(b)
		for i := leafLowerBound(b, lo); i < n; i++ {
			k := leafKey(b, i)
			if k > hi {
				return t.pool.Unpin(id, false)
			}
			if !fn(k, leafVal(b, i)) {
				return t.pool.Unpin(id, false)
			}
		}
		next, ok := leafNext(b)
		if err := t.pool.Unpin(id, false); err != nil {
			return err
		}
		if !ok {
			return nil
		}
		id = next
	}
}
