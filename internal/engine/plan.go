package engine

import (
	"fmt"
	"sort"
	"strconv"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/sched"
	"github.com/shortcircuit-db/sc/internal/table"
)

// Context supplies table resolution during execution. The controller wires
// Resolve to check the Memory Catalog first and fall back to external
// storage, which is where S/C's read short-circuiting happens.
type Context struct {
	Resolve func(name string) (*table.Table, error)
	// ResolveCompressed, when non-nil, resolves a table in compressed
	// chunked form without decoding any chunk: compressed Memory Catalog
	// entries are returned as-is and chunked storage files are parsed
	// lazily. Kernel-backed operators (internal/kernels) use it to decode
	// per chunk instead of per table; (nil, nil) means the table is not
	// available in chunked form and the caller should fall back to Resolve.
	ResolveCompressed func(name string) (*encoding.Compressed, error)
	// Sched, when non-nil, is the scheduler-wide token budget shared with
	// the exec Controller's node dispatcher. Kernels may widen a chunk scan
	// by borrowing idle tokens (sched.Scheduler.TryAcquire — never
	// blocking), so intra-node parallelism composes with node-level
	// parallelism under one bound.
	Sched *sched.Scheduler
	// ParallelScan enables the kernels' partitioned chunk path when Sched
	// has idle tokens to lend. Output stays byte-identical to serial.
	ParallelScan bool
}

// Node is an executable plan operator.
type Node interface {
	// Schema returns the operator's output schema.
	Schema() table.Schema
	// Run executes the operator and returns its full result.
	Run(ctx *Context) (*table.Table, error)
	// String renders a one-line description for plan display.
	String() string
}

// --- Scan ---

// Scan reads a named table. The expected schema is fixed at plan time; at
// run time the resolved table must match.
type Scan struct {
	Name string
	Sch  table.Schema
}

// Schema implements Node.
func (s *Scan) Schema() table.Schema { return s.Sch }

// Run implements Node.
func (s *Scan) Run(ctx *Context) (*table.Table, error) {
	if ctx == nil || ctx.Resolve == nil {
		return nil, fmt.Errorf("engine: no resolver for scan of %q", s.Name)
	}
	t, err := ctx.Resolve(s.Name)
	if err != nil {
		return nil, fmt.Errorf("engine: scan %q: %w", s.Name, err)
	}
	if !t.Schema.Equal(s.Sch) {
		return nil, fmt.Errorf("engine: scan %q: schema %s, expected %s", s.Name, t.Schema, s.Sch)
	}
	return t, nil
}

// String implements Node.
func (s *Scan) String() string { return fmt.Sprintf("Scan(%s)", s.Name) }

// --- Filter ---

// Filter keeps rows where Pred is truthy.
type Filter struct {
	Input Node
	Pred  Expr
}

// Schema implements Node.
func (f *Filter) Schema() table.Schema { return f.Input.Schema() }

// Run implements Node.
func (f *Filter) Run(ctx *Context) (*table.Table, error) {
	in, err := f.Input.Run(ctx)
	if err != nil {
		return nil, err
	}
	n := in.NumRows()
	v, _, err := evalCols(f.Pred, in, allRows(n))
	if err != nil {
		return nil, fmt.Errorf("engine: filter: %w", err)
	}
	keep := 0
	for i := 0; i < n; i++ {
		if v.truthy(i) {
			keep++
		}
	}
	idx := make([]int, 0, keep)
	for i := 0; i < n; i++ {
		if v.truthy(i) {
			idx = append(idx, i)
		}
	}
	return in.Gather(idx), nil
}

// String implements Node.
func (f *Filter) String() string { return fmt.Sprintf("Filter(%s)", f.Pred) }

// --- Project ---

// Project computes one output column per expression.
type Project struct {
	Input Node
	Exprs []Expr
	Names []string
	sch   table.Schema
}

// NewProject builds a projection, computing the output schema eagerly so
// type errors surface at plan time.
func NewProject(input Node, exprs []Expr, names []string) (*Project, error) {
	if len(exprs) != len(names) {
		return nil, fmt.Errorf("engine: %d exprs, %d names", len(exprs), len(names))
	}
	inSch := input.Schema()
	p := &Project{Input: input, Exprs: exprs, Names: names}
	for i, e := range exprs {
		t, err := e.Type(inSch)
		if err != nil {
			return nil, fmt.Errorf("engine: project %q: %w", names[i], err)
		}
		p.sch.Cols = append(p.sch.Cols, table.Column{Name: names[i], Type: t})
	}
	return p, nil
}

// Schema implements Node.
func (p *Project) Schema() table.Schema { return p.sch }

// Run implements Node.
func (p *Project) Run(ctx *Context) (*table.Table, error) {
	in, err := p.Input.Run(ctx)
	if err != nil {
		return nil, err
	}
	n := in.NumRows()
	out := table.New(p.sch)
	if n == 0 {
		return out, nil
	}
	// Evaluate expression by expression, keeping the failure row-major
	// evaluation would hit first: an expression failing on a row fails
	// before any later expression on that row and before the row is
	// appended, and appending fails on a value of the wrong type. Later
	// expressions only run on the rows above an earlier failure.
	vecs := make([]vec, len(p.Exprs))
	evalBad, appendBad := noFail, noFail
	var evalErr error
	for c, e := range p.Exprs {
		v, bad, err := evalCols(e, in, allRows(n).below(evalBad))
		vecs[c] = v
		defined := evalBad // v holds the rows below this one
		if err != nil {
			defined, evalBad, evalErr = bad, bad, fmt.Errorf("engine: project %q: %w", p.Names[c], err)
		}
		if bad := mistypedRow(&v, p.sch.Cols[c].Type, defined); bad < appendBad {
			appendBad = bad
		}
	}
	switch {
	case evalErr != nil && evalBad <= appendBad:
		return nil, evalErr
	case appendBad != noFail:
		vals := make([]table.Value, len(vecs))
		for c := range vecs {
			vals[c] = coerce(vecs[c].value(appendBad), p.sch.Cols[c].Type)
		}
		return nil, out.AppendRow(vals...)
	}
	for c := range vecs {
		out.Cols[c] = column(&vecs[c], p.sch.Cols[c].Type, n)
	}
	return out, nil
}

// mistypedRow returns the first row below lim whose value, widened by
// coerce, is not of type want, or noFail.
func mistypedRow(v *vec, want table.Type, lim int) int {
	if v.boxed {
		for i := 0; i < lim && i < len(v.vals); i++ {
			if coerce(v.vals[i&v.mask], want).Type != want {
				return i
			}
		}
		return noFail
	}
	if v.Type == want || (v.Type == table.Int && want == table.Float) || lim == 0 {
		return noFail
	}
	return 0
}

// column turns an evaluated expression into an n-row output column of type
// want (INT widens to FLOAT as coerce does). A result the evaluation
// allocated becomes the column as is; an input column is copied, never
// shared, since inputs may be Memory Catalog entries; a literal repeats.
func column(v *vec, want table.Type, n int) *table.Vector {
	switch {
	case v.boxed:
		out := &table.Vector{Type: want}
		for i := 0; i < n; i++ {
			_ = out.Append(coerce(v.vals[i&v.mask], want))
		}
		return out
	case v.Type == table.Int && want == table.Float:
		out := &table.Vector{Type: table.Float, Floats: make([]float64, n)}
		for i := range out.Floats {
			out.Floats[i] = float64(v.Ints[i&v.mask])
		}
		return out
	case v.owned:
		return &v.Vector
	}
	out := &table.Vector{Type: v.Type}
	switch v.Type {
	case table.Int:
		out.Ints = repeatOrCopy(v.Ints, v.mask, n)
	case table.Float:
		out.Floats = repeatOrCopy(v.Floats, v.mask, n)
	default:
		out.Strs = repeatOrCopy(v.Strs, v.mask, n)
	}
	return out
}

// repeatOrCopy copies the first n values of src (mask -1) or repeats
// src[0] n times (mask 0).
func repeatOrCopy[T any](src []T, mask, n int) []T {
	out := make([]T, n)
	if mask != 0 {
		copy(out, src[:n])
		return out
	}
	for i := range out {
		out[i] = src[0]
	}
	return out
}

// String implements Node.
func (p *Project) String() string { return fmt.Sprintf("Project(%d cols)", len(p.Exprs)) }

// coerce widens INT to FLOAT when the planned type demands it (mixed
// arithmetic can produce either at runtime).
func coerce(v table.Value, want table.Type) table.Value {
	if v.Type == table.Int && want == table.Float {
		return table.FloatValue(float64(v.I))
	}
	return v
}

// --- HashJoin ---

// HashJoin is an inner equi-join: build a hash table on the right input,
// probe with the left. Output columns are left columns followed by right
// columns.
type HashJoin struct {
	Left, Right         Node
	LeftKeys, RightKeys []int // column indices, parallel slices
}

// Schema implements Node.
func (j *HashJoin) Schema() table.Schema {
	var sch table.Schema
	sch.Cols = append(sch.Cols, j.Left.Schema().Cols...)
	sch.Cols = append(sch.Cols, j.Right.Schema().Cols...)
	return sch
}

// Run implements Node.
func (j *HashJoin) Run(ctx *Context) (*table.Table, error) {
	if len(j.LeftKeys) != len(j.RightKeys) || len(j.LeftKeys) == 0 {
		return nil, fmt.Errorf("engine: join needs matching non-empty key lists")
	}
	left, err := j.Left.Run(ctx)
	if err != nil {
		return nil, err
	}
	right, err := j.Right.Run(ctx)
	if err != nil {
		return nil, err
	}
	var leftIdx, rightIdx []int
	lc, rc := left.Cols[j.LeftKeys[0]], right.Cols[j.RightKeys[0]]
	single := len(j.LeftKeys) == 1 && lc.Type == rc.Type
	switch {
	case single && lc.Type == table.Int:
		leftIdx, rightIdx = matchTyped(lc.Ints, rc.Ints)
	case single && lc.Type == table.Str:
		leftIdx, rightIdx = matchTyped(lc.Strs, rc.Strs)
	default:
		leftIdx, rightIdx = j.matchEncoded(left, right)
	}
	lg := left.Gather(leftIdx)
	rg := right.Gather(rightIdx)
	out := &table.Table{Schema: j.Schema()}
	out.Cols = append(out.Cols, lg.Cols...)
	out.Cols = append(out.Cols, rg.Cols...)
	return out, nil
}

// matchTyped pairs every probe row with each build row holding an equal
// key, in probe order and then build order, keyed by the typed value: for
// a single INT or STRING key pair that equality is exactly appendKey's.
func matchTyped[K comparable](probe, build []K) (probeIdx, buildIdx []int) {
	rows := make(map[K][]int32, len(build))
	for i, k := range build {
		rows[k] = append(rows[k], int32(i))
	}
	probeIdx = make([]int, 0, len(probe))
	buildIdx = make([]int, 0, len(probe))
	for i, k := range probe {
		for _, r := range rows[k] {
			probeIdx = append(probeIdx, i)
			buildIdx = append(buildIdx, int(r))
		}
	}
	return probeIdx, buildIdx
}

// matchEncoded is matchTyped for FLOAT, mixed-type and multi-column keys,
// keyed by appendKey encodings.
func (j *HashJoin) matchEncoded(left, right *table.Table) (leftIdx, rightIdx []int) {
	build := make(map[string][]int32, right.NumRows())
	var key []byte
	for i := 0; i < right.NumRows(); i++ {
		key = key[:0]
		for _, c := range j.RightKeys {
			key = appendKey(key, right.Cols[c].Value(i))
		}
		build[string(key)] = append(build[string(key)], int32(i))
	}
	leftIdx = make([]int, 0, left.NumRows())
	rightIdx = make([]int, 0, left.NumRows())
	for i := 0; i < left.NumRows(); i++ {
		key = key[:0]
		for _, c := range j.LeftKeys {
			key = appendKey(key, left.Cols[c].Value(i))
		}
		for _, r := range build[string(key)] {
			leftIdx = append(leftIdx, i)
			rightIdx = append(rightIdx, int(r))
		}
	}
	return leftIdx, rightIdx
}

// String implements Node.
func (j *HashJoin) String() string {
	return fmt.Sprintf("HashJoin(keys=%v=%v)", j.LeftKeys, j.RightKeys)
}

// appendKey encodes a value unambiguously into a join/group key, bucketing
// values together when OpEq compares them equal: negative zero folds into
// positive zero (-0.0 == 0.0; the %g formatting this replaced split them).
// NaN is the deliberate exception — Value.Compare reports NaN equal to
// EVERY float, which no hash key can express, so keys bucket all NaNs
// together and apart from ordinary numbers; TestJoinKeyNaN pins that
// asymmetry. Keys build with strconv into a caller-reused buffer instead
// of allocating through fmt.Fprintf per value.
func appendKey(b []byte, v table.Value) []byte {
	switch v.Type {
	case table.Int:
		b = append(b, 'i')
		b = strconv.AppendInt(b, v.I, 10)
	case table.Float:
		f := v.F
		if f == 0 {
			f = 0 // fold -0.0 into +0.0: OpEq compares them equal
		}
		b = append(b, 'f')
		b = strconv.AppendFloat(b, f, 'g', -1, 64)
	default:
		b = append(b, 's')
		b = strconv.AppendInt(b, int64(len(v.S)), 10)
		b = append(b, ':')
		b = append(b, v.S...)
	}
	return append(b, '|')
}

// --- Aggregate ---

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota // COUNT(*) when Arg is nil
	AggSum
	AggAvg
	AggMin
	AggMax
)

var aggNames = map[AggFunc]string{
	AggCount: "COUNT", AggSum: "SUM", AggAvg: "AVG", AggMin: "MIN", AggMax: "MAX",
}

// AggSpec is one aggregate output column.
type AggSpec struct {
	Func AggFunc
	Arg  Expr // nil only for COUNT(*)
	Name string
}

// Aggregate is a hash aggregation: group by the given input column indices
// and compute each AggSpec per group. Output columns are the group-by
// columns followed by the aggregates. With no group-by columns it produces
// exactly one row (global aggregation).
type Aggregate struct {
	Input   Node
	GroupBy []int
	Aggs    []AggSpec
	sch     table.Schema
}

// NewAggregate builds an aggregation, validating argument types eagerly.
func NewAggregate(input Node, groupBy []int, aggs []AggSpec) (*Aggregate, error) {
	inSch := input.Schema()
	a := &Aggregate{Input: input, GroupBy: groupBy, Aggs: aggs}
	for _, g := range groupBy {
		if g < 0 || g >= inSch.NumCols() {
			return nil, fmt.Errorf("engine: group-by column %d out of range", g)
		}
		a.sch.Cols = append(a.sch.Cols, inSch.Cols[g])
	}
	for _, spec := range aggs {
		var t table.Type
		switch {
		case spec.Func == AggCount:
			t = table.Int
		case spec.Arg == nil:
			return nil, fmt.Errorf("engine: %s requires an argument", aggNames[spec.Func])
		default:
			at, err := spec.Arg.Type(inSch)
			if err != nil {
				return nil, fmt.Errorf("engine: agg %q: %w", spec.Name, err)
			}
			if spec.Func == AggMin || spec.Func == AggMax {
				t = at
			} else if spec.Func == AggAvg {
				t = table.Float
			} else { // SUM
				if at == table.Str {
					return nil, fmt.Errorf("engine: SUM over STRING")
				}
				t = at
			}
		}
		a.sch.Cols = append(a.sch.Cols, table.Column{Name: spec.Name, Type: t})
	}
	return a, nil
}

// Schema implements Node.
func (a *Aggregate) Schema() table.Schema { return a.sch }

type aggState struct {
	count   int64
	sumF    float64
	sumI    int64
	min     table.Value
	max     table.Value
	haveExt bool
}

type aggGroup struct {
	keyRow []table.Value
	states []aggState
}

// AggAcc accumulates input rows into an Aggregate's groups. It exists so
// the compressed-execution kernels (internal/kernels) share the row
// engine's grouping, accumulation and output-ordering semantics by
// construction: Aggregate.Run itself is implemented on top of it, and a
// kernel feeding the same rows in the same order produces a byte-identical
// result table.
type AggAcc struct {
	a      *Aggregate
	groups []*aggGroup // first-appearance order
	// Groups are found by the typed value of a single INT group-by column
	// (byInt), of a single STRING one (byStr with typedKey), or otherwise
	// by the appendKey encoding of every group-by value (byStr) — which
	// folds -0.0 into 0.0 and puts every NaN in one group.
	byInt    map[int64]*aggGroup
	byStr    map[string]*aggGroup
	typedKey bool
	key      []byte // reused group-key buffer
	// sumFLive marks specs whose float accumulator is output-relevant, so
	// AddRepeat knows when it must reproduce bit-exact repeated addition
	// and when a closed form suffices.
	sumFLive []bool
}

// NewAcc returns an empty accumulator for the aggregate.
func (a *Aggregate) NewAcc() *AggAcc { return a.newAcc(true) }

// newAcc returns an empty accumulator; typed lets a single INT or STRING
// group-by column key groups by its value.
func (a *Aggregate) newAcc(typed bool) *AggAcc {
	acc := &AggAcc{a: a}
	for si, spec := range a.Aggs {
		outType := a.sch.Cols[len(a.GroupBy)+si].Type
		acc.sumFLive = append(acc.sumFLive,
			spec.Func == AggAvg || (spec.Func == AggSum && outType == table.Float))
	}
	switch {
	case typed && len(a.GroupBy) == 1 && a.sch.Cols[0].Type == table.Int:
		acc.byInt = make(map[int64]*aggGroup)
	case typed && len(a.GroupBy) == 1 && a.sch.Cols[0].Type == table.Str:
		acc.byStr, acc.typedKey = make(map[string]*aggGroup), true
	default:
		acc.byStr = make(map[string]*aggGroup)
	}
	return acc
}

// find returns the group of the key values vals[cols[0]], vals[cols[1]],
// ..., or nil. The map lookups convert the key buffer without allocating.
func (acc *AggAcc) find(vals []table.Value, cols []int) *aggGroup {
	switch {
	case acc.byInt != nil:
		return acc.byInt[vals[cols[0]].I]
	case acc.typedKey:
		return acc.byStr[vals[cols[0]].S]
	}
	acc.key = acc.key[:0]
	for _, c := range cols {
		acc.key = appendKey(acc.key, vals[c])
	}
	return acc.byStr[string(acc.key)]
}

// insert appends grp as a new group; it must follow a find of the same
// key that returned nil.
func (acc *AggAcc) insert(grp *aggGroup) {
	switch {
	case acc.byInt != nil:
		acc.byInt[grp.keyRow[0].I] = grp
	case acc.typedKey:
		acc.byStr[grp.keyRow[0].S] = grp
	default:
		acc.byStr[string(acc.key)] = grp
	}
	acc.groups = append(acc.groups, grp)
}

// group finds or creates the group for the current input row.
func (acc *AggAcc) group(row []table.Value) *aggGroup {
	a := acc.a
	if grp := acc.find(row, a.GroupBy); grp != nil {
		return grp
	}
	keyRow := make([]table.Value, len(a.GroupBy))
	for gi, g := range a.GroupBy {
		keyRow[gi] = row[g]
	}
	grp := &aggGroup{keyRow: keyRow, states: make([]aggState, len(a.Aggs))}
	acc.insert(grp)
	return grp
}

// Add folds one input row into the accumulator.
func (acc *AggAcc) Add(row []table.Value) error {
	return acc.AddRepeat(row, 1)
}

// AddRepeat folds n identical input rows into the accumulator, as if Add
// were called n times: counts and integer sums accumulate in closed form,
// while output-relevant float sums repeat the addition so the result stays
// bit-identical to the row-at-a-time engine. RLE aggregation kernels use
// it to consume a run without expanding it.
func (acc *AggAcc) AddRepeat(row []table.Value, n int) error {
	if n <= 0 {
		return nil
	}
	grp := acc.group(row)
	for si, spec := range acc.a.Aggs {
		st := &grp.states[si]
		if spec.Func == AggCount && spec.Arg == nil {
			st.count += int64(n)
			continue
		}
		v, err := spec.Arg.Eval(row)
		if err != nil {
			return fmt.Errorf("engine: agg %q: %w", spec.Name, err)
		}
		st.count += int64(n)
		switch spec.Func {
		case AggSum, AggAvg:
			if v.Type == table.Str {
				return fmt.Errorf("engine: %s over STRING", aggNames[spec.Func])
			}
			if acc.sumFLive[si] {
				f := v.AsFloat()
				for r := 0; r < n; r++ {
					st.sumF += f
				}
			}
			if v.Type == table.Int {
				st.sumI += v.I * int64(n)
			}
		case AggMin, AggMax:
			if !st.haveExt {
				st.min, st.max, st.haveExt = v, v, true
				continue
			}
			if c, err := v.Compare(st.min); err == nil && c < 0 {
				st.min = v
			}
			if c, err := v.Compare(st.max); err == nil && c > 0 {
				st.max = v
			}
		}
	}
	return nil
}

// ExactMergeable reports whether partial accumulators for this aggregate
// merge without changing the result's bytes. Counts, integer sums and
// Compare-based min/max are order-insensitive; an output-relevant float
// sum (AVG, or SUM with a float result) is not — its value depends on the
// exact addition order — so such aggregates must accumulate serially.
func (acc *AggAcc) ExactMergeable() bool {
	for _, live := range acc.sumFLive {
		if live {
			return false
		}
	}
	return true
}

// Merge folds another accumulator for the same aggregate into acc,
// preserving first-appearance group order: groups already in acc keep
// their position, and other's new groups append in other's own order. The
// chunk-parallel aggregation kernel merges per-partition accumulators in
// partition order, which makes the merged result identical to a serial
// pass whenever ExactMergeable holds.
func (acc *AggAcc) Merge(other *AggAcc) {
	keyCols := make([]int, len(acc.a.GroupBy))
	for k := range keyCols {
		keyCols[k] = k
	}
	for _, og := range other.groups {
		grp := acc.find(og.keyRow, keyCols)
		if grp == nil {
			acc.insert(og)
			continue
		}
		for si := range grp.states {
			st, os := &grp.states[si], &og.states[si]
			st.count += os.count
			st.sumI += os.sumI
			st.sumF += os.sumF
			if os.haveExt {
				if !st.haveExt {
					st.min, st.max, st.haveExt = os.min, os.max, true
					continue
				}
				// Strict comparisons keep acc's (earlier partition's) value
				// on ties, matching what serial accumulation would have kept.
				if c, err := os.min.Compare(st.min); err == nil && c < 0 {
					st.min = os.min
				}
				if c, err := os.max.Compare(st.max); err == nil && c > 0 {
					st.max = os.max
				}
			}
		}
	}
}

// Result builds the output table: group keys in first-appearance order,
// and for a global aggregation over empty input the single row of zeros.
func (acc *AggAcc) Result() (*table.Table, error) {
	a := acc.a
	if len(a.GroupBy) == 0 && len(acc.groups) == 0 {
		acc.groups = append(acc.groups, &aggGroup{states: make([]aggState, len(a.Aggs))})
	}
	out := table.New(a.sch)
	for _, grp := range acc.groups {
		vals := make([]table.Value, 0, a.sch.NumCols())
		vals = append(vals, grp.keyRow...)
		for si, spec := range a.Aggs {
			st := grp.states[si]
			outType := a.sch.Cols[len(a.GroupBy)+si].Type
			switch spec.Func {
			case AggCount:
				vals = append(vals, table.IntValue(st.count))
			case AggSum:
				if outType == table.Int {
					vals = append(vals, table.IntValue(st.sumI))
				} else {
					vals = append(vals, table.FloatValue(st.sumF))
				}
			case AggAvg:
				if st.count == 0 {
					vals = append(vals, table.FloatValue(0))
				} else {
					vals = append(vals, table.FloatValue(st.sumF/float64(st.count)))
				}
			case AggMin:
				vals = append(vals, extremeOrZero(st.min, st.haveExt, outType))
			case AggMax:
				vals = append(vals, extremeOrZero(st.max, st.haveExt, outType))
			}
		}
		if err := out.AppendRow(vals...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Run implements Node.
func (a *Aggregate) Run(ctx *Context) (*table.Table, error) {
	in, err := a.Input.Run(ctx)
	if err != nil {
		return nil, err
	}
	// Only the group-by and argument columns are read into the row; an
	// argument of a type defined outside this package may read any column.
	need, ok := a.InputCols(len(in.Cols))
	if !ok {
		need = make([]int, len(in.Cols))
		for c := range need {
			need[c] = c
		}
	}
	acc := a.NewAcc()
	row := make([]table.Value, len(in.Cols))
	for i := 0; i < in.NumRows(); i++ {
		for _, c := range need {
			row[c] = in.Cols[c].Value(i)
		}
		if err := acc.Add(row); err != nil {
			return nil, err
		}
	}
	return acc.Result()
}

// InputCols returns, ascending, the input columns the aggregation reads:
// its group-by columns and every column its arguments reference. ok is
// false when a column is out of range for an ncols-column input or an
// argument is an Expr type defined outside this package, which may read
// any column.
func (a *Aggregate) InputCols(ncols int) (cols []int, ok bool) {
	read := make([]bool, ncols)
	for _, g := range a.GroupBy {
		if g < 0 || g >= ncols {
			return nil, false
		}
		read[g] = true
	}
	for _, spec := range a.Aggs {
		if spec.Arg != nil && !MarkCols(spec.Arg, read) {
			return nil, false
		}
	}
	for c, r := range read {
		if r {
			cols = append(cols, c)
		}
	}
	return cols, true
}

// MarkCols sets read[c] for every column c the expression reads. It
// reports false on a column reference outside read's range and on an Expr
// type defined outside this package, whose reads it cannot see.
func MarkCols(e Expr, read []bool) bool {
	switch x := e.(type) {
	case *ColRef:
		if x.Idx < 0 || x.Idx >= len(read) {
			return false
		}
		read[x.Idx] = true
		return true
	case *Lit:
		return true
	case *Bin:
		return MarkCols(x.L, read) && MarkCols(x.R, read)
	case *Not:
		return MarkCols(x.E, read)
	case *InList:
		return MarkCols(x.E, read)
	}
	return false
}

func extremeOrZero(v table.Value, have bool, t table.Type) table.Value {
	if have {
		return coerce(v, t)
	}
	switch t {
	case table.Int:
		return table.IntValue(0)
	case table.Float:
		return table.FloatValue(0)
	default:
		return table.StrValue("")
	}
}

// String implements Node.
func (a *Aggregate) String() string {
	return fmt.Sprintf("Aggregate(groups=%v, aggs=%d)", a.GroupBy, len(a.Aggs))
}

// --- Sort ---

// SortKey orders by one column.
type SortKey struct {
	Col  int
	Desc bool
}

// Sort orders rows by the given keys (stable).
type Sort struct {
	Input Node
	Keys  []SortKey
}

// Schema implements Node.
func (s *Sort) Schema() table.Schema { return s.Input.Schema() }

// Run implements Node.
func (s *Sort) Run(ctx *Context) (*table.Table, error) {
	in, err := s.Input.Run(ctx)
	if err != nil {
		return nil, err
	}
	idx := make([]int, in.NumRows())
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	sort.SliceStable(idx, func(a, b int) bool {
		for _, k := range s.Keys {
			va := in.Cols[k.Col].Value(idx[a])
			vb := in.Cols[k.Col].Value(idx[b])
			c, err := va.Compare(vb)
			if err != nil && sortErr == nil {
				sortErr = err
			}
			if c != 0 {
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	if sortErr != nil {
		return nil, fmt.Errorf("engine: sort: %w", sortErr)
	}
	return in.Gather(idx), nil
}

// String implements Node.
func (s *Sort) String() string { return fmt.Sprintf("Sort(%d keys)", len(s.Keys)) }

// --- Limit ---

// Limit passes through at most N rows.
type Limit struct {
	Input Node
	N     int
}

// Schema implements Node.
func (l *Limit) Schema() table.Schema { return l.Input.Schema() }

// Run implements Node.
func (l *Limit) Run(ctx *Context) (*table.Table, error) {
	in, err := l.Input.Run(ctx)
	if err != nil {
		return nil, err
	}
	n := l.N
	if n > in.NumRows() {
		n = in.NumRows()
	}
	if n < 0 {
		n = 0
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return in.Gather(idx), nil
}

// String implements Node.
func (l *Limit) String() string { return fmt.Sprintf("Limit(%d)", l.N) }

// --- UnionAll ---

// UnionAll concatenates inputs with identical schemas.
type UnionAll struct {
	Inputs []Node
}

// Schema implements Node.
func (u *UnionAll) Schema() table.Schema {
	if len(u.Inputs) == 0 {
		return table.Schema{}
	}
	return u.Inputs[0].Schema()
}

// Run implements Node.
func (u *UnionAll) Run(ctx *Context) (*table.Table, error) {
	if len(u.Inputs) == 0 {
		return table.New(table.Schema{}), nil
	}
	sch := u.Inputs[0].Schema()
	out := table.New(sch)
	for _, in := range u.Inputs {
		if !in.Schema().Equal(sch) {
			return nil, fmt.Errorf("engine: UNION ALL schema mismatch: %s vs %s", in.Schema(), sch)
		}
		t, err := in.Run(ctx)
		if err != nil {
			return nil, err
		}
		for c, v := range t.Cols {
			switch v.Type {
			case table.Int:
				out.Cols[c].Ints = append(out.Cols[c].Ints, v.Ints...)
			case table.Float:
				out.Cols[c].Floats = append(out.Cols[c].Floats, v.Floats...)
			default:
				out.Cols[c].Strs = append(out.Cols[c].Strs, v.Strs...)
			}
		}
	}
	return out, nil
}

// String implements Node.
func (u *UnionAll) String() string { return fmt.Sprintf("UnionAll(%d inputs)", len(u.Inputs)) }
