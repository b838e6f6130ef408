package engine

import (
	"math"
	"sort"
	"strings"

	"github.com/shortcircuit-db/sc/internal/table"
)

// Column-at-a-time expression evaluation. evalCols runs each node of an
// expression tree once over typed vectors instead of once per row over
// boxed table.Values, and reproduces Expr.Eval exactly:
//
//   - numeric comparisons go through float64, as Value.Compare does, so
//     INTs beyond 2^53 compare as their float64 images and NaN compares
//     equal to every number;
//   - arithmetic keeps INT∘INT as INT except for division, and fails on
//     division or modulo by zero, on FLOAT modulo and on STRING operands;
//   - AND and OR evaluate their right side only on the rows their left
//     side leaves undecided;
//   - a failing evaluation reports the error row-major evaluation reports:
//     that of the lowest failing row, and within a row the first failing
//     node in Eval's order. Every error value comes from the scalar code
//     Eval itself runs (binScalar, inScalar).

// noFail is the failure row of an evaluation that did not fail.
const noFail = math.MaxInt

// rowSel lists, ascending, the input rows an evaluation covers: rows
// [0, n) when idx is nil, otherwise the rows in idx. Row numbers fit in
// an int32.
type rowSel struct {
	idx []int32
	n   int
}

// allRows selects rows [0, n).
func allRows(n int) rowSel { return rowSel{n: n} }

// someRows selects the listed rows, which must be ascending.
func someRows(idx []int32) rowSel {
	if idx == nil {
		idx = []int32{}
	}
	return rowSel{idx: idx}
}

func (s rowSel) len() int {
	if s.idx == nil {
		return s.n
	}
	return len(s.idx)
}

// at returns the k-th selected row.
func (s rowSel) at(k int) int {
	if s.idx == nil {
		return k
	}
	return int(s.idx[k])
}

// below keeps the selected rows under r.
func (s rowSel) below(r int) rowSel {
	if s.idx == nil {
		s.n = min(s.n, r)
		return s
	}
	s.idx = s.idx[:sort.Search(len(s.idx), func(k int) bool { return int(s.idx[k]) >= r })]
	return s
}

// vec is an evaluated expression: one value per input row, defined at the
// rows the evaluation covered. A column or computed result is indexed by
// row (mask -1); a literal holds one value for every row at index 0 (mask
// 0), so index i&mask reads either. An Expr type defined outside this
// package may yield a different type on every row, so it evaluates boxed,
// into vals.
type vec struct {
	table.Vector
	mask  int
	owned bool // the backing array was allocated by this evaluation
	boxed bool
	vals  []table.Value
}

// colVec reads an input column in place.
func colVec(c *table.Vector) vec {
	v := vec{Vector: *c, mask: -1}
	if v.Type > table.Str {
		v.Type = table.Str // Vector.Value reads an unknown type as STRING
	}
	return v
}

// litVec holds a constant for every row.
func litVec(x table.Value) vec {
	v := vec{Vector: table.Vector{Type: x.Type}}
	switch x.Type {
	case table.Int:
		v.Ints = []int64{x.I}
	case table.Float:
		v.Floats = []float64{x.F}
	case table.Str:
		v.Strs = []string{x.S}
	default:
		v.boxed, v.vals = true, []table.Value{x}
	}
	return v
}

// boolVec allocates an INT 0/1 result for n rows.
func boolVec(n int) vec {
	return vec{Vector: table.Vector{Type: table.Int, Ints: make([]int64, n)}, mask: -1, owned: true}
}

// boxedVec allocates a boxed result for n rows.
func boxedVec(n int) vec {
	return vec{vals: make([]table.Value, n), mask: -1, owned: true, boxed: true}
}

// value boxes the value at row i.
func (v *vec) value(i int) table.Value {
	i &= v.mask
	if v.boxed {
		return v.vals[i]
	}
	return v.Vector.Value(i)
}

// truthy reports truthy(v.value(i)) without boxing.
func (v *vec) truthy(i int) bool {
	i &= v.mask
	switch {
	case v.boxed:
		return truthy(v.vals[i])
	case v.Type == table.Int:
		return v.Ints[i] != 0
	case v.Type == table.Float:
		return v.Floats[i] != 0
	default:
		return v.Strs[i] != ""
	}
}

// evalCols evaluates e at the rows sel of in, column at a time. It returns
// one value per input row, defined at the selected rows. When evaluation
// fails it returns the error row-major Eval would report first and the
// row it fails on; the result is then defined only at the selected rows
// below that row.
func evalCols(e Expr, in *table.Table, sel rowSel) (vec, int, error) {
	n := in.NumRows()
	switch x := e.(type) {
	case *ColRef:
		if x.Idx < 0 || x.Idx >= len(in.Cols) {
			return failFirst(sel, func(int) error {
				_, err := x.Eval(nil)
				return err
			})
		}
		return colVec(in.Cols[x.Idx]), noFail, nil
	case *Lit:
		return litVec(x.V), noFail, nil
	case *Bin:
		l, bad, err := evalCols(x.L, in, sel)
		if x.Op.IsLogical() {
			return evalLogical(x, l, bad, err, in, sel)
		}
		r, rbad, rerr := evalCols(x.R, in, sel.below(bad))
		if rerr != nil {
			bad, err = rbad, rerr
		}
		out, obad, oerr := binCols(x.Op, &l, &r, sel.below(bad), n)
		if oerr != nil {
			return out, obad, oerr
		}
		return out, bad, err
	case *Not:
		v, bad, err := evalCols(x.E, in, sel)
		out := boolVec(n)
		s := sel.below(bad)
		for k := 0; k < s.len(); k++ {
			i := s.at(k)
			out.Ints[i] = b2i(!v.truthy(i))
		}
		return out, bad, err
	case *InList:
		v, bad, err := evalCols(x.E, in, sel)
		out := boolVec(n)
		if ibad, ierr := inCols(x.List, &v, sel.below(bad), out.Ints); ierr != nil {
			return out, ibad, ierr
		}
		return out, bad, err
	}
	return evalRows(e, in, sel)
}

// evalRows evaluates an Expr type defined outside this package through its
// own Eval, one row at a time over whole input rows (it may read any
// column).
func evalRows(e Expr, in *table.Table, sel rowSel) (vec, int, error) {
	out := boxedVec(in.NumRows())
	row := make([]table.Value, len(in.Cols))
	for k := 0; k < sel.len(); k++ {
		i := sel.at(k)
		for c, col := range in.Cols {
			row[c] = col.Value(i)
		}
		v, err := e.Eval(row)
		if err != nil {
			return out, i, err
		}
		out.vals[i] = v
	}
	return out, noFail, nil
}

// evalLogical finishes AND/OR after the left side l: the right side runs
// only on the rows l leaves undecided.
func evalLogical(x *Bin, l vec, bad int, err error, in *table.Table, sel rowSel) (vec, int, error) {
	out := boolVec(in.NumRows())
	decides := x.Op == OpOr // OR is decided by a truthy left side, AND by a falsy one
	s := sel.below(bad)
	undecided := make([]int32, 0, s.len())
	for k := 0; k < s.len(); k++ {
		i := s.at(k)
		if l.truthy(i) == decides {
			out.Ints[i] = b2i(decides)
		} else {
			undecided = append(undecided, int32(i))
		}
	}
	rs := someRows(undecided)
	r, rbad, rerr := evalCols(x.R, in, rs)
	if rerr != nil {
		bad, err = rbad, rerr
	}
	rs = rs.below(bad)
	for _, i := range rs.idx {
		out.Ints[i] = b2i(r.truthy(int(i)))
	}
	return out, bad, err
}

// failFirst reports an operation that fails on every row: it fails on the
// first selected one.
func failFirst(s rowSel, errAt func(i int) error) (vec, int, error) {
	if s.len() == 0 {
		return vec{}, noFail, nil
	}
	i := s.at(0)
	return vec{}, i, errAt(i)
}

// binCols applies a non-logical operator at the selected rows.
func binCols(op BinOp, l, r *vec, s rowSel, n int) (vec, int, error) {
	scalarErr := func(i int) error {
		_, err := binScalar(op, l.value(i), r.value(i))
		return err
	}
	if l.boxed || r.boxed {
		out := boxedVec(n)
		for k := 0; k < s.len(); k++ {
			i := s.at(k)
			v, err := binScalar(op, l.value(i), r.value(i))
			if err != nil {
				return out, i, err
			}
			out.vals[i] = v
		}
		return out, noFail, nil
	}
	lStr, rStr := l.Type == table.Str, r.Type == table.Str
	switch {
	case op.IsComparison() && lStr && rStr:
		out := boolVec(n)
		cmpStrs(op, l, r, s, out.Ints)
		return out, noFail, nil
	case op.IsComparison() && !lStr && !rStr:
		out := boolVec(n)
		cmpNums(op, l, r, s, out.Ints)
		return out, noFail, nil
	case op.IsComparison(), lStr, rStr, op > OpMod, op == OpMod && (l.Type == table.Float || r.Type == table.Float):
		// Incomparable operands, arithmetic on STRING, FLOAT modulo and
		// unknown operators fail whatever the values.
		return failFirst(s, scalarErr)
	case l.Type == table.Int && r.Type == table.Int && op != OpDiv:
		out := vec{Vector: table.Vector{Type: table.Int, Ints: make([]int64, n)}, mask: -1, owned: true}
		if bad := arithInts(op, l, r, s, out.Ints); bad != noFail {
			return out, bad, scalarErr(bad)
		}
		return out, noFail, nil
	default:
		out := vec{Vector: table.Vector{Type: table.Float, Floats: make([]float64, n)}, mask: -1, owned: true}
		if bad := arithFloats(op, l, r, s, out.Floats); bad != noFail {
			return out, bad, scalarErr(bad)
		}
		return out, noFail, nil
	}
}

func cmpStrs(op BinOp, l, r *vec, s rowSel, out []int64) {
	for k := 0; k < s.len(); k++ {
		i := s.at(k)
		out[i] = b2i(cmpHolds(op, strings.Compare(l.Strs[i&l.mask], r.Strs[i&r.mask])))
	}
}

func cmpNums(op BinOp, l, r *vec, s rowSel, out []int64) {
	switch {
	case l.Type == table.Int && r.Type == table.Int:
		cmpNum(op, l.Ints, l.mask, r.Ints, r.mask, s, out)
	case l.Type == table.Int:
		cmpNum(op, l.Ints, l.mask, r.Floats, r.mask, s, out)
	case r.Type == table.Int:
		cmpNum(op, l.Floats, l.mask, r.Ints, r.mask, s, out)
	default:
		cmpNum(op, l.Floats, l.mask, r.Floats, r.mask, s, out)
	}
}

// cmpNum compares through float64 as Value.Compare does, INT against INT
// included: neither < nor > means equal, so NaN equals every number and
// 2^53+1 equals 2^53.
func cmpNum[L, R int64 | float64](op BinOp, l []L, lm int, r []R, rm int, s rowSel, out []int64) {
	for k := 0; k < s.len(); k++ {
		i := s.at(k)
		a, b := float64(l[i&lm]), float64(r[i&rm])
		c := 0
		if a < b {
			c = -1
		} else if a > b {
			c = 1
		}
		out[i] = b2i(cmpHolds(op, c))
	}
}

// arithInts applies +, -, * or % to INT operands and returns the first row
// with a zero divisor, or noFail.
func arithInts(op BinOp, l, r *vec, s rowSel, out []int64) int {
	for k := 0; k < s.len(); k++ {
		i := s.at(k)
		a, b := l.Ints[i&l.mask], r.Ints[i&r.mask]
		switch op {
		case OpAdd:
			out[i] = a + b
		case OpSub:
			out[i] = a - b
		case OpMul:
			out[i] = a * b
		default: // OpMod
			if b == 0 {
				return i
			}
			out[i] = a % b
		}
	}
	return noFail
}

func arithFloats(op BinOp, l, r *vec, s rowSel, out []float64) int {
	switch {
	case l.Type == table.Int && r.Type == table.Int:
		return arithFloat(op, l.Ints, l.mask, r.Ints, r.mask, s, out)
	case l.Type == table.Int:
		return arithFloat(op, l.Ints, l.mask, r.Floats, r.mask, s, out)
	case r.Type == table.Int:
		return arithFloat(op, l.Floats, l.mask, r.Ints, r.mask, s, out)
	default:
		return arithFloat(op, l.Floats, l.mask, r.Floats, r.mask, s, out)
	}
}

// arithFloat applies +, -, * or / through float64 and returns the first
// row with a zero divisor, or noFail.
func arithFloat[L, R int64 | float64](op BinOp, l []L, lm int, r []R, rm int, s rowSel, out []float64) int {
	for k := 0; k < s.len(); k++ {
		i := s.at(k)
		a, b := float64(l[i&lm]), float64(r[i&rm])
		switch op {
		case OpAdd:
			out[i] = a + b
		case OpSub:
			out[i] = a - b
		case OpMul:
			out[i] = a * b
		default: // OpDiv
			if b == 0 {
				return i
			}
			out[i] = a / b
		}
	}
	return noFail
}

// inCols tests membership at the selected rows through inScalar: IN
// lists are short, so boxing each tested value costs little.
func inCols(list []table.Value, v *vec, s rowSel, out []int64) (int, error) {
	for k := 0; k < s.len(); k++ {
		i := s.at(k)
		x, err := inScalar(v.value(i), list)
		if err != nil {
			return i, err
		}
		out[i] = x.I
	}
	return noFail, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
