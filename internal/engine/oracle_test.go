package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/shortcircuit-db/sc/internal/colfmt"
	"github.com/shortcircuit-db/sc/internal/table"
)

// The row-at-a-time operator bodies the column-at-a-time operators
// replaced. They evaluate every expression through Expr.Eval over whole
// rows and serve as the reference the differential tests below compare
// the operators against, output bytes and error text alike.

// fillRow copies row i of t into row.
func fillRow(t *table.Table, i int, row []table.Value) {
	for c, v := range t.Cols {
		row[c] = v.Value(i)
	}
}

func refFilter(in *table.Table, pred Expr) (*table.Table, error) {
	var idx []int
	row := make([]table.Value, len(in.Cols))
	for i := 0; i < in.NumRows(); i++ {
		fillRow(in, i, row)
		v, err := pred.Eval(row)
		if err != nil {
			return nil, fmt.Errorf("engine: filter: %w", err)
		}
		if truthy(v) {
			idx = append(idx, i)
		}
	}
	return in.Gather(idx), nil
}

func refProject(in *table.Table, p *Project) (*table.Table, error) {
	out := table.New(p.sch)
	row := make([]table.Value, len(in.Cols))
	vals := make([]table.Value, len(p.Exprs))
	for i := 0; i < in.NumRows(); i++ {
		fillRow(in, i, row)
		for c, e := range p.Exprs {
			v, err := e.Eval(row)
			if err != nil {
				return nil, fmt.Errorf("engine: project %q: %w", p.Names[c], err)
			}
			vals[c] = coerce(v, p.sch.Cols[c].Type)
		}
		if err := out.AppendRow(vals...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func refHashJoin(left, right *table.Table, j *HashJoin) (*table.Table, error) {
	build := make(map[string][]int)
	var key []byte
	for i := 0; i < right.NumRows(); i++ {
		key = key[:0]
		for _, c := range j.RightKeys {
			key = appendKey(key, right.Cols[c].Value(i))
		}
		build[string(key)] = append(build[string(key)], i)
	}
	var leftIdx, rightIdx []int
	for i := 0; i < left.NumRows(); i++ {
		key = key[:0]
		for _, c := range j.LeftKeys {
			key = appendKey(key, left.Cols[c].Value(i))
		}
		for _, r := range build[string(key)] {
			leftIdx = append(leftIdx, i)
			rightIdx = append(rightIdx, r)
		}
	}
	lg := left.Gather(leftIdx)
	rg := right.Gather(rightIdx)
	out := &table.Table{Schema: j.Schema()}
	out.Cols = append(out.Cols, lg.Cols...)
	out.Cols = append(out.Cols, rg.Cols...)
	return out, nil
}

// refAggregate feeds whole rows to an accumulator that groups by appendKey
// encodings only.
func refAggregate(in *table.Table, a *Aggregate) (*table.Table, error) {
	acc := a.newAcc(false)
	row := make([]table.Value, len(in.Cols))
	for i := 0; i < in.NumRows(); i++ {
		fillRow(in, i, row)
		if err := acc.Add(row); err != nil {
			return nil, err
		}
	}
	return acc.Result()
}

// customExpr is an Expr type the engine does not know: it yields its inner
// expression's value where that is truthy and Alt elsewhere, so its value
// type can change from row to row.
type customExpr struct {
	E   Expr
	Alt table.Value
}

func (c *customExpr) Type(sch table.Schema) (table.Type, error) { return c.E.Type(sch) }

func (c *customExpr) Eval(row []table.Value) (table.Value, error) {
	v, err := c.E.Eval(row)
	if err != nil || truthy(v) {
		return v, err
	}
	return c.Alt, nil
}

func (c *customExpr) String() string { return fmt.Sprintf("custom(%s)", c.E) }

// Edge-case value pools: NaN, ±0.0, ±Inf, INTs around ±2^53 and the int64
// extremes, the empty string, and small values so keys repeat.
var (
	edgeInts = []int64{0, 1, -1, 2, 3, 7, 1 << 53, 1<<53 + 1, 1<<53 - 1,
		-(1 << 53), -(1 << 53) - 1, math.MinInt64, math.MaxInt64}
	edgeFloats = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1, 1.5, -2.5, 3, 0.1, 1 << 53, 1<<53 + 2}
	edgeStrs = []string{"", "a", "b", "ab", "zz", "a\x00"}
)

// choices draws the random decisions of the generators: from a seeded
// source in the differential tests, from fuzz bytes in FuzzEvalCols.
type choices interface {
	Intn(n int) int
}

// byteChoices reads decisions from fuzz input, then zeros.
type byteChoices struct {
	b []byte
}

func (c *byteChoices) Intn(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0]) % n
	c.b = c.b[1:]
	return v
}

func genValue(r choices, t table.Type) table.Value {
	switch t {
	case table.Int:
		if r.Intn(3) == 0 {
			return table.IntValue(edgeInts[r.Intn(len(edgeInts))])
		}
		return table.IntValue(int64(r.Intn(7) - 3))
	case table.Float:
		if r.Intn(3) == 0 {
			return table.FloatValue(edgeFloats[r.Intn(len(edgeFloats))])
		}
		return table.FloatValue(float64(r.Intn(7)-3) / 2)
	default:
		return table.StrValue(edgeStrs[r.Intn(len(edgeStrs))])
	}
}

func genType(r choices) table.Type { return table.Type(r.Intn(3)) }

// genTable builds a table of nrows rows over the given column types.
func genTable(r choices, nrows int, types []table.Type) *table.Table {
	var sch table.Schema
	for c, t := range types {
		sch.Cols = append(sch.Cols, table.Column{Name: fmt.Sprintf("c%d", c), Type: t})
	}
	tb := table.New(sch)
	for i := 0; i < nrows; i++ {
		for c, t := range types {
			_ = tb.Cols[c].Append(genValue(r, t))
		}
	}
	return tb
}

func genTypes(r choices, n int) []table.Type {
	types := make([]table.Type, n)
	for c := range types {
		types[c] = genType(r)
	}
	return types
}

// genExpr builds a random expression tree of at most the given depth over
// ncols input columns. It mixes types freely, so some trees fail at run
// time: arithmetic on STRING, incomparable operands, zero divisors
// (often behind AND/OR), FLOAT modulo, out-of-range columns, unknown
// operators and literal types.
func genExpr(r choices, depth, ncols int) Expr {
	if depth <= 1 || r.Intn(4) == 0 {
		switch k := r.Intn(10); {
		case k < 6 && ncols > 0:
			return &ColRef{Idx: r.Intn(ncols)}
		case k == 6:
			return &ColRef{Idx: ncols} // out of range
		case k == 7:
			return &Lit{V: table.IntValue(0)} // a zero divisor
		case k == 8 && r.Intn(4) == 0:
			return &Lit{V: table.Value{Type: table.Str + 1, F: 1, S: "?"}} // not a column type
		default:
			return &Lit{V: genValue(r, genType(r))}
		}
	}
	switch k := r.Intn(12); {
	case k < 8:
		// Operators up to one past OpOr, which Eval rejects at run time.
		return &Bin{Op: BinOp(r.Intn(int(OpOr) + 2)), L: genExpr(r, depth-1, ncols), R: genExpr(r, depth-1, ncols)}
	case k == 8:
		return &Not{E: genExpr(r, depth-1, ncols)}
	case k == 9:
		list := make([]table.Value, r.Intn(4))
		for i := range list {
			list[i] = genValue(r, genType(r))
		}
		return &InList{E: genExpr(r, depth-1, ncols), List: list}
	case k == 10:
		// A zero divisor behind AND/OR.
		op := OpAnd
		if r.Intn(2) == 0 {
			op = OpOr
		}
		div := &Bin{Op: OpDiv + BinOp(r.Intn(2)), L: genExpr(r, depth-2, ncols), R: genExpr(r, depth-2, ncols)}
		return &Bin{Op: op, L: genExpr(r, depth-1, ncols), R: div}
	default:
		return &customExpr{E: genExpr(r, depth-1, ncols), Alt: genValue(r, genType(r))}
	}
}

func scanCtx(tabs ...*table.Table) (*Context, []*Scan) {
	m := make(map[string]*table.Table)
	var scans []*Scan
	for i, tb := range tabs {
		name := fmt.Sprintf("t%d", i)
		m[name] = tb
		scans = append(scans, &Scan{Name: name, Sch: tb.Schema})
	}
	return ctxTables(m), scans
}

// sameOutcome checks that an operator and its reference agree: the same
// error text, or the same colfmt encoding of the result.
func sameOutcome(t *testing.T, what string, got *table.Table, gotErr error, want *table.Table, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	gb, err := colfmt.Encode(got)
	if err != nil {
		t.Fatalf("%s: encode: %v", what, err)
	}
	wb, err := colfmt.Encode(want)
	if err != nil {
		t.Fatalf("%s: encode reference: %v", what, err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s: output differs from the reference\ngot  %v\nwant %v", what, rows(got), rows(want))
	}
}

// rows renders a table's rows for failure messages.
func rows(t *table.Table) [][]table.Value {
	out := make([][]table.Value, t.NumRows())
	for i := range out {
		out[i] = t.Row(i)
	}
	return out
}

const diffCases = 3000

func TestFilterMatchesRowReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n < diffCases; n++ {
		in := genTable(r, r.Intn(24), genTypes(r, 1+r.Intn(4)))
		ctx, scans := scanCtx(in)
		pred := genExpr(r, 1+r.Intn(4), len(in.Cols))
		got, gotErr := (&Filter{Input: scans[0], Pred: pred}).Run(ctx)
		want, wantErr := refFilter(in, pred)
		sameOutcome(t, fmt.Sprintf("case %d: WHERE %s", n, pred), got, gotErr, want, wantErr)
	}
}

func TestProjectMatchesRowReference(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for n := 0; n < diffCases; n++ {
		in := genTable(r, r.Intn(24), genTypes(r, 1+r.Intn(4)))
		ctx, scans := scanCtx(in)
		p := &Project{Input: scans[0]}
		for c := 0; c < 1+r.Intn(4); c++ {
			e := genExpr(r, 1+r.Intn(4), len(in.Cols))
			typ, err := e.Type(in.Schema)
			if err != nil || r.Intn(8) == 0 {
				typ = genType(r) // a planned type the values may not have
			}
			p.Exprs = append(p.Exprs, e)
			p.Names = append(p.Names, fmt.Sprintf("e%d", c))
			p.sch.Cols = append(p.sch.Cols, table.Column{Name: p.Names[c], Type: typ})
		}
		got, gotErr := p.Run(ctx)
		want, wantErr := refProject(in, p)
		sameOutcome(t, fmt.Sprintf("case %d: SELECT %v", n, p.Exprs), got, gotErr, want, wantErr)
	}
}

func TestAggregateMatchesRowReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	funcs := []AggFunc{AggCount, AggSum, AggAvg, AggMin, AggMax}
	for n := 0; n < diffCases; n++ {
		in := genTable(r, r.Intn(40), genTypes(r, 1+r.Intn(4)))
		ctx, scans := scanCtx(in)
		var groupBy []int
		for g := r.Intn(3); g > 0; g-- {
			groupBy = append(groupBy, r.Intn(len(in.Cols)))
		}
		var specs []AggSpec
		for k := 0; k < 1+r.Intn(3); k++ {
			spec := AggSpec{Func: funcs[r.Intn(len(funcs))], Name: fmt.Sprintf("a%d", k)}
			if spec.Func != AggCount || r.Intn(2) == 0 {
				spec.Arg = genExpr(r, 1+r.Intn(3), len(in.Cols))
			}
			specs = append(specs, spec)
		}
		a, err := NewAggregate(scans[0], groupBy, specs)
		if err != nil {
			continue // rejected at plan time, e.g. SUM over STRING
		}
		what := fmt.Sprintf("case %d: GROUP BY %v %v", n, groupBy, specs)
		got, gotErr := a.Run(ctx)
		want, wantErr := refAggregate(in, a)
		sameOutcome(t, what, got, gotErr, want, wantErr)
		if gotErr != nil || !a.NewAcc().ExactMergeable() || hasMinMax(specs) {
			continue
		}
		// Merging partial accumulators keys groups the same way. MIN and
		// MAX are left out: Value.Compare calls NaN equal to everything,
		// so a partial whose first value is NaN never records its other
		// values, and a merge of partials can differ from the serial pass.
		half := in.NumRows() / 2
		lo, hi := a.NewAcc(), a.NewAcc()
		for i := 0; i < in.NumRows(); i++ {
			acc := lo
			if i >= half {
				acc = hi
			}
			if err := acc.Add(in.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
		lo.Merge(hi)
		merged, err := lo.Result()
		sameOutcome(t, what+" merged", merged, err, want, nil)
	}
}

func hasMinMax(specs []AggSpec) bool {
	for _, s := range specs {
		if s.Func == AggMin || s.Func == AggMax {
			return true
		}
	}
	return false
}

func TestHashJoinMatchesRowReference(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for n := 0; n < diffCases; n++ {
		left := genTable(r, r.Intn(30), genTypes(r, 1+r.Intn(3)))
		right := genTable(r, r.Intn(30), genTypes(r, 1+r.Intn(3)))
		ctx, scans := scanCtx(left, right)
		j := &HashJoin{Left: scans[0], Right: scans[1]}
		for k := 0; k < 1+r.Intn(2); k++ {
			j.LeftKeys = append(j.LeftKeys, r.Intn(len(left.Cols)))
			j.RightKeys = append(j.RightKeys, r.Intn(len(right.Cols)))
		}
		got, gotErr := j.Run(ctx)
		want, wantErr := refHashJoin(left, right, j)
		sameOutcome(t, fmt.Sprintf("case %d: %s", n, j), got, gotErr, want, wantErr)
	}
}

// sameValue compares two values exactly, floats by bit pattern.
func sameValue(a, b table.Value) bool {
	return a.Type == b.Type && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

// checkEvalCols evaluates e column at a time over the rows sel of in and
// compares every selected row with Eval on that row: the same value up to
// the first failing row, and there the same row and error.
func checkEvalCols(t *testing.T, e Expr, in *table.Table, sel rowSel) {
	t.Helper()
	got, bad, err := evalCols(e, in, sel)
	row := make([]table.Value, len(in.Cols))
	for k := 0; k < sel.len(); k++ {
		i := sel.at(k)
		fillRow(in, i, row)
		want, wantErr := e.Eval(row)
		if wantErr != nil {
			if err == nil || bad != i || err.Error() != wantErr.Error() {
				t.Fatalf("%s: row %d fails with %q; evalCols failed at row %d with %v", e, i, wantErr, bad, err)
			}
			return
		}
		if err != nil && bad <= i {
			t.Fatalf("%s: evalCols failed at row %d with %v; Eval succeeds there", e, bad, err)
		}
		if v := got.value(i); !sameValue(v, want) {
			t.Fatalf("%s: row %d = %#v, Eval gives %#v", e, i, v, want)
		}
	}
	if err != nil {
		t.Fatalf("%s: evalCols failed at row %d with %v; Eval succeeds on every row", e, bad, err)
	}
}

// randomSel selects all rows, or a random ascending subset.
func randomSel(r choices, n int) rowSel {
	if r.Intn(2) == 0 {
		return allRows(n)
	}
	var idx []int32
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			idx = append(idx, int32(i))
		}
	}
	return someRows(idx)
}

func TestEvalColsMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for n := 0; n < 4*diffCases; n++ {
		in := genTable(r, r.Intn(24), genTypes(r, 1+r.Intn(4)))
		checkEvalCols(t, genExpr(r, 1+r.Intn(4), len(in.Cols)), in, randomSel(r, in.NumRows()))
	}
}

// FuzzEvalCols checks evalCols against per-row Eval on a table and an
// expression tree of depth up to 4 both decoded from the fuzz input.
func FuzzEvalCols(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 2, 0, 1, 9, 9, 9, 3, 3, 3, 0, 0, 1})
	f.Add([]byte("division by zero behind AND and OR"))
	f.Add(bytes.Repeat([]byte{7, 3, 1, 0, 255}, 20))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteChoices{b: data}
		types := genTypes(r, 1+r.Intn(3))
		depth := 1 + r.Intn(4)
		e := genExpr(r, depth, len(types))
		in := genTable(r, r.Intn(12), types)
		checkEvalCols(t, e, in, randomSel(r, in.NumRows()))
	})
}

// TestEvalColsBindingRules pins the semantics the vector paths must keep.
func TestEvalColsBindingRules(t *testing.T) {
	in := table.New(table.NewSchema(
		table.Column{Name: "i", Type: table.Int},
		table.Column{Name: "f", Type: table.Float},
	))
	for k, i := range []int64{1 << 53, 1<<53 + 1, 0, 5} {
		_ = in.AppendRow(table.IntValue(i), table.FloatValue([]float64{math.NaN(), 2, 0, -1}[k]))
	}
	col := func(c int) Expr { return &ColRef{Idx: c} }
	lit := func(v int64) Expr { return &Lit{V: table.IntValue(v)} }
	cases := []struct {
		name string
		e    Expr
		want []int64 // INT results, or nil when evaluation fails
		err  string
		bad  int
	}{
		{"2^53+1 = 2^53 through float64", &Bin{Op: OpEq, L: col(0), R: lit(1 << 53)}, []int64{1, 1, 0, 0}, "", 0},
		{"NaN equals every number", &Bin{Op: OpEq, L: col(1), R: lit(7)}, []int64{1, 0, 0, 0}, "", 0},
		{"AND guards a zero divisor", &Bin{Op: OpAnd, L: col(1),
			R: &Bin{Op: OpGt, L: &Bin{Op: OpDiv, L: lit(1), R: col(1)}, R: lit(0)}}, []int64{0, 1, 0, 0}, "", 0},
		{"OR guards a zero divisor", &Bin{Op: OpOr, L: &Bin{Op: OpEq, L: col(1), R: lit(0)},
			R: &Bin{Op: OpEq, L: &Bin{Op: OpMod, L: lit(1), R: col(0)}, R: lit(1)}}, []int64{1, 1, 1, 1}, "", 0},
		{"modulo by zero fails on its row", &Bin{Op: OpMod, L: lit(1), R: col(0)}, nil, "engine: modulo by zero", 2},
		{"FLOAT modulo fails on the first row", &Bin{Op: OpMod, L: col(1), R: lit(2)}, nil, "engine: modulo on FLOAT", 0},
		{"the lowest failing row wins over expression order", &Bin{Op: OpAdd,
			L: &Bin{Op: OpMod, L: lit(1), R: &Bin{Op: OpSub, L: col(0), R: lit(5)}},
			R: &Bin{Op: OpMod, L: lit(1), R: col(0)}}, nil, "engine: modulo by zero", 2},
	}
	for _, tc := range cases {
		checkEvalCols(t, tc.e, in, allRows(in.NumRows()))
		v, bad, err := evalCols(tc.e, in, allRows(in.NumRows()))
		if tc.want == nil {
			if err == nil || err.Error() != tc.err || bad != tc.bad {
				t.Errorf("%s: failed at row %d with %v, want row %d with %q", tc.name, bad, err, tc.bad, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		for i, w := range tc.want {
			if got := v.value(i); got.Type != table.Int || got.I != w {
				t.Errorf("%s: row %d = %v, want %d", tc.name, i, got, w)
			}
		}
	}

	// Across projected expressions, the lower failing row wins; on the
	// same row, the earlier expression.
	ctx, scans := scanCtx(in)
	modBy := func(c Expr) Expr { return &Bin{Op: OpMod, L: lit(1), R: c} }
	p, err := NewProject(scans[0], []Expr{modBy(&Bin{Op: OpSub, L: col(0), R: lit(5)}), modBy(col(0))}, []string{"late", "early"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(ctx); err == nil || err.Error() != `engine: project "early": engine: modulo by zero` {
		t.Fatalf("project error %v, want the row-2 failure of \"early\"", err)
	}
	p, err = NewProject(scans[0], []Expr{modBy(col(0)), modBy(col(0))}, []string{"first", "second"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(ctx); err == nil || err.Error() != `engine: project "first": engine: modulo by zero` {
		t.Fatalf("project error %v, want the failure of \"first\"", err)
	}
}

// TestProjectCopiesInputColumns checks that a bare column projection owns
// its output: writing to it leaves the input, which may be a Memory
// Catalog entry, untouched.
func TestProjectCopiesInputColumns(t *testing.T) {
	in := table.New(table.NewSchema(table.Column{Name: "i", Type: table.Int}, table.Column{Name: "s", Type: table.Str}))
	_ = in.AppendRow(table.IntValue(1), table.StrValue("a"))
	_ = in.AppendRow(table.IntValue(2), table.StrValue("b"))
	ctx, scans := scanCtx(in)
	p, err := NewProject(scans[0], []Expr{&ColRef{Idx: 1}, &ColRef{Idx: 0}}, []string{"s", "i"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	out.Cols[0].Strs[0], out.Cols[1].Ints[0] = "x", 9
	if in.Cols[0].Ints[0] != 1 || in.Cols[1].Strs[0] != "a" {
		t.Fatalf("projection shares the input's backing arrays: input now %v %v", in.Cols[0].Ints, in.Cols[1].Strs)
	}
}
