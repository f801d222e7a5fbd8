package sqldb

// Typed column indexes. An index maps a column's values to the ascending
// storage positions holding them, and serves equality probes for both
// engines: join probes, first-table seeding, and the correlated point
// lookups of the property queries.
//
// Keys fall into the classes of Value.Key — NULL, number, text, bool — so a
// probe never matches across classes. Numbers are keyed by the value `=`
// compares (Compare goes through Float): a number whose float is integral
// and within ±2^53 is an integer key int64(f), with −0 folded into 0; every
// other number (fractional, huge, infinite) is keyed by its float bits. Two
// numbers thus share a key exactly when `=` calls them equal, so an index
// never changes a query's result. (Value.Key formats the exact int64 and
// still serves grouping and the result cache.)
//
// Integer keys live in a dense offset array while the key range is compact:
// dense[k-base] lists the positions of key k, and the array never spans
// more than denseLimit(distinct keys) slots. An insert that would break the
// rule converts the index to an int64 map; a rebuild after UPDATE or DELETE
// chooses the form again from scratch. Each COSY table's ids form a compact
// range, so nearly every index of the COSY schema is an array.

import "math"

// maxExactInt is 2^53: every integer up to this magnitude is exact in float64.
const maxExactInt = 1 << 53

// canonicalNaN is the one key every NaN float maps to. The engine's
// arithmetic never yields NaN; only a bound parameter can carry one.
const canonicalNaN = 0x7FF8000000000001

// denseLimit is the most slots a dense array may span for n distinct keys.
func denseLimit(n int) int64 { return 4*int64(n) + 64 }

type colIndex struct {
	// nulls lists NULL cells. `=` never matches NULL, but seeding looks a
	// NULL key up like any other and the WHERE recheck drops the rows.
	nulls []int
	// Integer keys: the dense form while ints is nil, the map form after.
	dense    [][]int
	base     int64
	distinct int // non-empty dense slots
	ints     map[int64][]int
	// Every other class.
	flts  map[uint64][]int
	strs  map[string][]int
	bools [2][]int
}

// intKey reports the integer key of a number (INTEGER or REAL), or false
// when the number is keyed by its float bits instead.
func intKey(v Value) (int64, bool) {
	if v.kind == kindInt && v.i >= -maxExactInt && v.i <= maxExactInt {
		return v.i, true
	}
	f := v.Float()
	if f == math.Trunc(f) && f >= -maxExactInt && f <= maxExactInt {
		return int64(f), true // int64(-0) is 0
	}
	return 0, false
}

func floatKey(f float64) uint64 {
	if f != f {
		return canonicalNaN
	}
	return math.Float64bits(f)
}

func boolSlot(v Value) int {
	if v.i != 0 {
		return 1
	}
	return 0
}

// probeable reports whether an index on a column of type ct may answer an
// equality probe for v. `=` raises on a non-NULL value of another class, and
// the index holds no key of that class: it would answer "no rows" where a
// scan raises. Such probes seed by scan instead, which raises the identical
// error (or none, on an empty table). Equi-joins probe without this check.
func probeable(ct ColType, v Value) bool { return v.IsNull() || classOK(ct, v) }

// get returns the positions whose cell has v's key, in ascending order. The
// slice aliases the index and must not be modified.
func (ix *colIndex) get(v Value) []int {
	switch v.kind {
	case kindNull:
		return ix.nulls
	case kindInt, kindFloat:
		k, ok := intKey(v)
		if !ok {
			return ix.flts[floatKey(v.Float())]
		}
		if ix.ints != nil {
			return ix.ints[k]
		}
		if d := uint64(k - ix.base); d < uint64(len(ix.dense)) {
			return ix.dense[d]
		}
		return nil
	case kindText:
		return ix.strs[v.s]
	case kindBool:
		return ix.bools[boolSlot(v)]
	}
	return nil
}

// add records that position pos holds v. Positions arrive in ascending order.
func (ix *colIndex) add(v Value, pos int) {
	switch v.kind {
	case kindNull:
		ix.nulls = append(ix.nulls, pos)
	case kindInt, kindFloat:
		k, ok := intKey(v)
		if !ok {
			if ix.flts == nil {
				ix.flts = make(map[uint64][]int)
			}
			fk := floatKey(v.Float())
			ix.flts[fk] = append(ix.flts[fk], pos)
			return
		}
		ix.addInt(k, pos)
	case kindText:
		if ix.strs == nil {
			ix.strs = make(map[string][]int)
		}
		ix.strs[v.s] = append(ix.strs[v.s], pos)
	case kindBool:
		s := boolSlot(v)
		ix.bools[s] = append(ix.bools[s], pos)
	}
}

func (ix *colIndex) addInt(k int64, pos int) {
	if ix.ints == nil && len(ix.dense) > 0 {
		lo := min(k, ix.base)
		hi := max(k, ix.base+int64(len(ix.dense))-1)
		if hi-lo+1 > denseLimit(ix.distinct+1) {
			ix.toMap()
		}
	}
	if ix.ints != nil {
		ix.ints[k] = append(ix.ints[k], pos)
		return
	}
	if len(ix.dense) == 0 {
		ix.base = k
	}
	if k < ix.base {
		// Move the base down, leaving as much headroom below as the array
		// already spans, within the rule, so that descending inserts copy
		// the array O(log n) times.
		n := int64(len(ix.dense))
		grow := ix.base - k
		grow += min(n, denseLimit(ix.distinct+1)-n-grow)
		moved := make([][]int, n+grow)
		copy(moved[grow:], ix.dense)
		ix.dense, ix.base = moved, ix.base-grow
	}
	d := k - ix.base
	for int64(len(ix.dense)) <= d {
		ix.dense = append(ix.dense, nil)
	}
	if len(ix.dense[d]) == 0 {
		ix.distinct++
	}
	ix.dense[d] = append(ix.dense[d], pos)
}

// toMap converts the integer keys from the dense form to the map form.
func (ix *colIndex) toMap() {
	ix.ints = make(map[int64][]int, ix.distinct)
	for d, ps := range ix.dense {
		if len(ps) > 0 {
			ix.ints[ix.base+int64(d)] = ps
		}
	}
	ix.dense, ix.base, ix.distinct = nil, 0, 0
}

// buildColIndex indexes the first n cells of a column vector. The form of
// the integer keys is chosen from their range: a dense array is preallocated
// when the range fits the rule for the number of integer cells (an upper
// bound on the distinct keys), and converted to a map if it then fails the
// rule for the distinct keys actually seen.
func buildColIndex(cv *colVec, n int) *colIndex {
	ix := &colIndex{}
	lo, hi, cells := int64(math.MaxInt64), int64(math.MinInt64), 0
	for pos := 0; pos < n; pos++ {
		if v := cv.value(pos); v.IsNumeric() {
			if k, ok := intKey(v); ok {
				lo, hi = min(lo, k), max(hi, k)
				cells++
			}
		}
	}
	switch {
	case cells > 0 && hi-lo+1 <= denseLimit(cells):
		ix.base = lo
		ix.dense = make([][]int, hi-lo+1)
	case cells > 0:
		ix.ints = make(map[int64][]int)
	}
	for pos := 0; pos < n; pos++ {
		ix.add(cv.value(pos), pos)
	}
	if ix.ints == nil && int64(len(ix.dense)) > denseLimit(ix.distinct) {
		ix.toMap()
	}
	return ix
}
