// Package engine is the columnar execution engine S/C submits MV-refresh
// statements to, standing in for the Presto cluster in the paper's stack.
// It evaluates plan trees of scans, filters, projections, hash joins, hash
// aggregations, sorts and limits over tables resolved by name—from the
// Memory Catalog or from external storage, which is exactly the distinction
// S/C's optimization exploits.
//
// Operators evaluate by column, not by row: a filter predicate or a
// computed projection runs each expression node once over typed vectors
// (evalCols), a bare column projection copies its input column, an
// aggregation reads only the columns its keys and arguments reference, and
// joins and groups on one INT or STRING column key by the typed value.
// The per-row Expr.Eval stays the reference semantics the vector paths
// reproduce exactly, errors included.
package engine

import (
	"fmt"

	"github.com/shortcircuit-db/sc/internal/table"
)

// Expr is a scalar expression over an input row. Eval is the reference
// semantics: operators evaluate the built-in types (ColRef, Lit, Bin, Not,
// InList) column at a time with the same results and the same first error,
// and call Eval row by row for any Expr type defined outside this package.
type Expr interface {
	// Type returns the static result type given the input schema.
	Type(sch table.Schema) (table.Type, error)
	// Eval computes the value for one row.
	Eval(row []table.Value) (table.Value, error)
	// String renders the expression for plan display.
	String() string
}

// ColRef references an input column by position.
type ColRef struct {
	Idx  int
	Name string // for display only
}

// Type implements Expr.
func (c *ColRef) Type(sch table.Schema) (table.Type, error) {
	if c.Idx < 0 || c.Idx >= sch.NumCols() {
		return 0, fmt.Errorf("engine: column index %d out of range for %s", c.Idx, sch)
	}
	return sch.Cols[c.Idx].Type, nil
}

// Eval implements Expr.
func (c *ColRef) Eval(row []table.Value) (table.Value, error) {
	if c.Idx < 0 || c.Idx >= len(row) {
		return table.Value{}, fmt.Errorf("engine: column index %d out of range", c.Idx)
	}
	return row[c.Idx], nil
}

// String implements Expr.
func (c *ColRef) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Idx)
}

// Lit is a constant.
type Lit struct {
	V table.Value
}

// Type implements Expr.
func (l *Lit) Type(table.Schema) (table.Type, error) { return l.V.Type, nil }

// Eval implements Expr.
func (l *Lit) Eval([]table.Value) (table.Value, error) { return l.V, nil }

// String implements Expr.
func (l *Lit) String() string {
	if l.V.Type == table.Str {
		return fmt.Sprintf("%q", l.V.S)
	}
	return l.V.String()
}

// BinOp enumerates binary operators. Comparison and logical operators
// return INT 0/1 booleans.
type BinOp uint8

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binOpNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR",
}

// IsComparison reports whether the operator yields a boolean from two
// comparable operands.
func (op BinOp) IsComparison() bool { return op >= OpEq && op <= OpGe }

// IsLogical reports whether the operator combines booleans.
func (op BinOp) IsLogical() bool { return op == OpAnd || op == OpOr }

// Bin applies a binary operator.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// Type implements Expr.
func (b *Bin) Type(sch table.Schema) (table.Type, error) {
	lt, err := b.L.Type(sch)
	if err != nil {
		return 0, err
	}
	rt, err := b.R.Type(sch)
	if err != nil {
		return 0, err
	}
	switch {
	case b.Op.IsComparison(), b.Op.IsLogical():
		if b.Op.IsComparison() && (lt == table.Str) != (rt == table.Str) {
			return 0, fmt.Errorf("engine: cannot compare %s with %s", lt, rt)
		}
		return table.Int, nil
	default: // arithmetic
		if lt == table.Str || rt == table.Str {
			return 0, fmt.Errorf("engine: arithmetic on STRING")
		}
		if lt == table.Float || rt == table.Float || b.Op == OpDiv {
			return table.Float, nil
		}
		return table.Int, nil
	}
}

// Eval implements Expr.
func (b *Bin) Eval(row []table.Value) (table.Value, error) {
	l, err := b.L.Eval(row)
	if err != nil {
		return table.Value{}, err
	}
	// Short-circuit logical operators.
	if b.Op == OpAnd && !truthy(l) {
		return table.IntValue(0), nil
	}
	if b.Op == OpOr && truthy(l) {
		return table.IntValue(1), nil
	}
	r, err := b.R.Eval(row)
	if err != nil {
		return table.Value{}, err
	}
	if b.Op.IsLogical() {
		return boolValue(truthy(r)), nil
	}
	return binScalar(b.Op, l, r)
}

// binScalar applies a non-logical operator to two evaluated operands.
func binScalar(op BinOp, l, r table.Value) (table.Value, error) {
	if !op.IsComparison() {
		return evalArith(op, l, r)
	}
	c, err := l.Compare(r)
	if err != nil {
		return table.Value{}, err
	}
	return boolValue(cmpHolds(op, c)), nil
}

// cmpHolds reports whether a comparison operator holds for a Compare
// result c.
func cmpHolds(op BinOp, c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

func evalArith(op BinOp, l, r table.Value) (table.Value, error) {
	if l.Type == table.Str || r.Type == table.Str {
		return table.Value{}, fmt.Errorf("engine: arithmetic on STRING")
	}
	if l.Type == table.Int && r.Type == table.Int && op != OpDiv {
		a, b := l.I, r.I
		switch op {
		case OpAdd:
			return table.IntValue(a + b), nil
		case OpSub:
			return table.IntValue(a - b), nil
		case OpMul:
			return table.IntValue(a * b), nil
		case OpMod:
			if b == 0 {
				return table.Value{}, fmt.Errorf("engine: modulo by zero")
			}
			return table.IntValue(a % b), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch op {
	case OpAdd:
		return table.FloatValue(a + b), nil
	case OpSub:
		return table.FloatValue(a - b), nil
	case OpMul:
		return table.FloatValue(a * b), nil
	case OpDiv:
		if b == 0 {
			return table.Value{}, fmt.Errorf("engine: division by zero")
		}
		return table.FloatValue(a / b), nil
	case OpMod:
		return table.Value{}, fmt.Errorf("engine: modulo on FLOAT")
	}
	return table.Value{}, fmt.Errorf("engine: bad arithmetic op %d", op)
}

// String implements Expr.
func (b *Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, binOpNames[b.Op], b.R)
}

// Not negates a boolean expression.
type Not struct {
	E Expr
}

// Type implements Expr.
func (n *Not) Type(sch table.Schema) (table.Type, error) {
	if _, err := n.E.Type(sch); err != nil {
		return 0, err
	}
	return table.Int, nil
}

// Eval implements Expr.
func (n *Not) Eval(row []table.Value) (table.Value, error) {
	v, err := n.E.Eval(row)
	if err != nil {
		return table.Value{}, err
	}
	return boolValue(!truthy(v)), nil
}

// String implements Expr.
func (n *Not) String() string { return fmt.Sprintf("(NOT %s)", n.E) }

// InList tests membership in a literal list (SQL IN).
type InList struct {
	E    Expr
	List []table.Value
}

// Type implements Expr.
func (in *InList) Type(sch table.Schema) (table.Type, error) {
	if _, err := in.E.Type(sch); err != nil {
		return 0, err
	}
	return table.Int, nil
}

// Eval implements Expr.
func (in *InList) Eval(row []table.Value) (table.Value, error) {
	v, err := in.E.Eval(row)
	if err != nil {
		return table.Value{}, err
	}
	return inScalar(v, in.List)
}

// inScalar tests an evaluated value against the list, comparing items in
// order: a match ends the scan, so an incomparable item after it is never
// reached.
func inScalar(v table.Value, list []table.Value) (table.Value, error) {
	for _, item := range list {
		c, err := v.Compare(item)
		if err != nil {
			return table.Value{}, err
		}
		if c == 0 {
			return table.IntValue(1), nil
		}
	}
	return table.IntValue(0), nil
}

// String implements Expr.
func (in *InList) String() string { return fmt.Sprintf("(%s IN [%d items])", in.E, len(in.List)) }

func truthy(v table.Value) bool {
	switch v.Type {
	case table.Int:
		return v.I != 0
	case table.Float:
		return v.F != 0
	default:
		return v.S != ""
	}
}

func boolValue(b bool) table.Value {
	if b {
		return table.IntValue(1)
	}
	return table.IntValue(0)
}
