package core

import "container/heap"

// BestFirst pops candidate plans in ascending cost order on demand. It is
// the incremental replacement for CostModel.Order on the admission path:
// admission typically takes the first plan, so a full O(n log n) sort of
// the candidate set is wasted work. BestFirst heapifies once in O(n) and
// pays O(log n) per pop, costing only the plans actually tried.
//
// Ties break by the plan's position in the input slice, which makes the
// pop sequence exactly equal to the stable sort CostModel.Order performs —
// the golden-equivalence property the pipeline tests assert.
type BestFirst struct {
	h planHeap
}

// NewBestFirst scores every plan once under the current usage and builds
// the selection heap. Costs are captured at construction time, matching
// Order's semantics (one costing pass per admission round).
func NewBestFirst(plans []*Plan, model Coster, usage SiteUsage) *BestFirst {
	h := make(planHeap, len(plans))
	for i, p := range plans {
		h[i] = planItem{p: p, cost: model.Cost(p, usage), idx: i}
	}
	heap.Init(&h)
	return &BestFirst{h: h}
}

// Next pops the cheapest remaining plan; ok is false when exhausted.
func (b *BestFirst) Next() (p *Plan, ok bool) {
	if len(b.h) == 0 {
		return nil, false
	}
	return heap.Pop(&b.h).(planItem).p, true
}

type planItem struct {
	p    *Plan
	cost float64
	idx  int // input position: the stable-sort tie-break
}

type planHeap []planItem

func (h planHeap) Len() int { return len(h) }
func (h planHeap) Less(i, j int) bool {
	if h[i].cost != h[j].cost {
		return h[i].cost < h[j].cost
	}
	return h[i].idx < h[j].idx
}
func (h planHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *planHeap) Push(x any)   { *h = append(*h, x.(planItem)) }
func (h *planHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
