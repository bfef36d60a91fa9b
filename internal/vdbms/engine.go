package vdbms

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"sort"
	"strings"

	"quasaq/internal/media"
	"quasaq/internal/simtime"
	"quasaq/internal/storage"
)

// record is the stored catalog row.
type record struct {
	ID       uint32
	Title    string
	Duration float64
	FPS      float64
	Tags     []string
	Features []float64
}

// Result is one content-phase match: the logical video object plus its
// similarity score (0 for pure predicate matches; larger = less similar
// for SIMILAR TO queries).
type Result struct {
	Video    *media.Video
	Distance float64
}

// Engine is the content-phase query engine over one server's catalog.
// Catalog records live in a heap file; B+tree indexes on id and duration
// (milliseconds) accelerate point and range predicates, as Shore's B-tree
// access methods did for PREDATOR.
type Engine struct {
	heap     *storage.HeapFile
	idIdx    *storage.BTree
	durIdx   *storage.BTree
	titleIdx *storage.BTree // hash index: fnv64(title) -> OID
	tagIdx   *storage.BTree // hash index: fnv64(lower(tag)) -> OID, duplicates
	byID     map[media.VideoID]storage.OID
	videos   map[media.VideoID]*media.Video
	stats    ExecStats

	// The qoe table (see qoe.go) lives on the same volume.
	qoeHeap    *storage.HeapFile
	qoeTimeIdx *storage.BTree // TimeMillis -> OID, duplicates
	qoeCount   int
}

// NewEngine creates an engine with its own volume and buffer pool.
func NewEngine() *Engine {
	vol := storage.NewVolume(1)
	pool := storage.NewBufferPool(vol, 256)
	idIdx, err := storage.NewBTree(pool, vol)
	if err != nil {
		panic(err) // fresh volume cannot fail to allocate a root
	}
	durIdx, err := storage.NewBTree(pool, vol)
	if err != nil {
		panic(err)
	}
	titleIdx, err := storage.NewBTree(pool, vol)
	if err != nil {
		panic(err)
	}
	tagIdx, err := storage.NewBTree(pool, vol)
	if err != nil {
		panic(err)
	}
	qoeTimeIdx, err := storage.NewBTree(pool, vol)
	if err != nil {
		panic(err)
	}
	return &Engine{
		heap:       storage.NewHeapFile(pool, vol),
		idIdx:      idIdx,
		durIdx:     durIdx,
		titleIdx:   titleIdx,
		tagIdx:     tagIdx,
		byID:       make(map[media.VideoID]storage.OID),
		videos:     make(map[media.VideoID]*media.Video),
		qoeHeap:    storage.NewHeapFile(pool, vol),
		qoeTimeIdx: qoeTimeIdx,
	}
}

// Stats returns executor counters.
func (e *Engine) Stats() ExecStats { return e.stats }

// InsertVideo adds a video to the catalog. The row keeps the content
// metadata that queries read: title, tags, duration, frame rate and
// features.
func (e *Engine) InsertVideo(v *media.Video) error {
	if _, dup := e.byID[v.ID]; dup {
		return fmt.Errorf("vdbms: duplicate video id %v", v.ID)
	}
	rec := record{
		ID:       uint32(v.ID),
		Title:    v.Title,
		Duration: simtime.ToSeconds(v.Duration),
		FPS:      v.FrameRate,
		Tags:     v.Tags,
		Features: v.Features(),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return fmt.Errorf("vdbms: encode catalog record: %w", err)
	}
	oid, err := e.heap.Insert(buf.Bytes())
	if err != nil {
		return fmt.Errorf("vdbms: store catalog record: %w", err)
	}
	if err := e.idIdx.Insert(int64(rec.ID), oid); err != nil {
		return fmt.Errorf("vdbms: id index: %w", err)
	}
	if err := e.durIdx.Insert(int64(rec.Duration*1000), oid); err != nil {
		return fmt.Errorf("vdbms: duration index: %w", err)
	}
	if err := e.titleIdx.Insert(strKey(rec.Title), oid); err != nil {
		return fmt.Errorf("vdbms: title index: %w", err)
	}
	for _, tag := range rec.Tags {
		if err := e.tagIdx.Insert(tagKey(tag), oid); err != nil {
			return fmt.Errorf("vdbms: tag index: %w", err)
		}
	}
	e.byID[v.ID] = oid
	e.videos[v.ID] = v
	return nil
}

// Video resolves a logical OID to its video object.
func (e *Engine) Video(id media.VideoID) (*media.Video, error) {
	v, ok := e.videos[id]
	if !ok {
		return nil, fmt.Errorf("vdbms: no video %v", id)
	}
	return v, nil
}

// All returns every catalog video, ordered by id.
func (e *Engine) All() []*media.Video {
	out := make([]*media.Video, 0, len(e.videos))
	for _, v := range e.videos {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ExecuteSQL parses and executes a query string.
func (e *Engine) ExecuteSQL(src string) ([]Result, *Query, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	res, err := e.Execute(q)
	return res, q, err
}

// Execute runs the content phase of a parsed query: choose an access path
// (id index, duration index, or full scan), fetch candidate records, apply
// the residual predicate, optionally rank by feature similarity, and apply
// LIMIT. All record reads go through the heap file and therefore the
// buffer pool, like PREDATOR evaluating over Shore.
func (e *Engine) Execute(q *Query) ([]Result, error) {
	if !strings.EqualFold(q.Table, "videos") {
		return nil, fmt.Errorf("vdbms: unknown table %q", q.Table)
	}
	var refFeatures []float64
	if q.SimilarTo != "" {
		ref, err := e.findRef(q.SimilarTo)
		if err != nil {
			return nil, err
		}
		refFeatures = ref.Features()
	}
	path := ChooseAccessPath(q.Where)
	e.stats.Queries++
	if path.Kind != "full-scan" {
		e.stats.IndexQueries++
	}

	var out []Result
	examined := uint64(0)
	consider := func(data []byte) error {
		examined++
		var rec record
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&rec); err != nil {
			return fmt.Errorf("vdbms: corrupt catalog record: %w", err)
		}
		row := Row{ID: rec.ID, Title: rec.Title, Duration: rec.Duration, FPS: rec.FPS, Tags: rec.Tags}
		if q.Where != nil && !q.Where.Eval(&row) {
			return nil
		}
		v := e.videos[media.VideoID(rec.ID)]
		if v == nil {
			return nil
		}
		r := Result{Video: v}
		if refFeatures != nil {
			r.Distance = l2(refFeatures, rec.Features)
		}
		out = append(out, r)
		return nil
	}

	var err error
	switch path.Kind {
	case "id-index":
		err = e.fetchIndexed(e.idIdx, path.IDKey, path.IDKey, consider)
	case "duration-index":
		err = e.fetchIndexed(e.durIdx, path.Lo, path.Hi, consider)
	case "title-index":
		err = e.fetchIndexed(e.titleIdx, path.IDKey, path.IDKey, consider)
	case "tag-index":
		err = e.fetchIndexed(e.tagIdx, path.IDKey, path.IDKey, consider)
	default:
		var innerErr error
		err = e.heap.Scan(func(_ storage.OID, data []byte) bool {
			innerErr = consider(data)
			return innerErr == nil
		})
		if err == nil {
			err = innerErr
		}
	}
	if err != nil {
		return nil, err
	}
	e.stats.RecordsExamined += examined

	if refFeatures != nil {
		sort.SliceStable(out, func(i, j int) bool { return out[i].Distance < out[j].Distance })
	} else {
		sort.SliceStable(out, func(i, j int) bool { return out[i].Video.ID < out[j].Video.ID })
	}
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out, nil
}

// fetchIndexed reads each record whose index key lies in [lo, hi].
func (e *Engine) fetchIndexed(idx *storage.BTree, lo, hi int64, consider func([]byte) error) error {
	var oids []storage.OID
	if err := idx.Range(lo, hi, func(_ int64, v storage.OID) bool {
		oids = append(oids, v)
		return true
	}); err != nil {
		return err
	}
	for _, oid := range oids {
		data, err := e.heap.Get(oid)
		if err != nil {
			return fmt.Errorf("vdbms: dangling index entry %v: %w", oid, err)
		}
		if err := consider(data); err != nil {
			return err
		}
	}
	return nil
}

// findRef resolves a SIMILAR TO reference by exact title or vNNN id.
func (e *Engine) findRef(ref string) (*media.Video, error) {
	for _, v := range e.videos {
		if strings.EqualFold(v.Title, ref) || strings.EqualFold(v.ID.String(), ref) {
			return v, nil
		}
	}
	return nil, fmt.Errorf("vdbms: SIMILAR TO reference %q not found", ref)
}

func l2(a, b []float64) float64 {
	var sum float64
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
