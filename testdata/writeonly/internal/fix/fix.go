// Package fix writes one field each way the unreached-names scan counts as
// a write, next to a field that is read and one whose address is taken.
package fix

// T is written by Run.
type T struct {
	Assigned  int            // only assigned, plainly and with op=
	Counted   int            // only ++'d
	Keyed     int            // only set as a composite-literal key
	Indexed   map[string]int // only stored into through an index
	Read      int            // assigned, then read
	Addressed int            // taken by &t.Addressed
}

// Run writes every field of a T and returns one of them.
func Run() int {
	t := T{Keyed: 1, Indexed: map[string]int{}}
	t.Assigned = 2
	t.Assigned += 3
	t.Counted++
	t.Indexed["k"] = 4
	t.Read = 5
	p := &t.Addressed
	*p = 6
	return t.Read
}
