package engine

import (
	"math/rand"
	"testing"

	"github.com/shortcircuit-db/sc/internal/table"
)

// Row-operator microbenchmarks on a store_sales-shaped fact table of 240k
// rows (the TPC-DS-like generator's store_sales at scale factor 20) and
// its 730-day date dimension: the join, filter, projection and
// aggregation of the ss_1999 and store_pl MVs.

const benchSalesRows = 240_000

func benchSales() (sales, dates *table.Table) {
	rng := rand.New(rand.NewSource(1))
	dates = table.New(table.NewSchema(
		table.Column{Name: "d_date_sk", Type: table.Int},
		table.Column{Name: "d_year", Type: table.Int},
		table.Column{Name: "d_moy", Type: table.Int},
		table.Column{Name: "d_week_seq", Type: table.Int},
	))
	for i := 0; i < 730; i++ {
		_ = dates.AppendRow(table.IntValue(int64(2450000+i)), table.IntValue(int64(1999+i/365)),
			table.IntValue(int64(i%365/31+1)), table.IntValue(int64(i/7+1)))
	}
	sales = table.New(table.NewSchema(
		table.Column{Name: "sold_date_sk", Type: table.Int},
		table.Column{Name: "item_sk", Type: table.Int},
		table.Column{Name: "customer_sk", Type: table.Int},
		table.Column{Name: "store_sk", Type: table.Int},
		table.Column{Name: "quantity", Type: table.Int},
		table.Column{Name: "sales_price", Type: table.Float},
		table.Column{Name: "net_profit", Type: table.Float},
	))
	for i := 0; i < benchSalesRows; i++ {
		price := float64(rng.Intn(20000)+100) / 100
		qty := int64(rng.Intn(10) + 1)
		_ = sales.AppendRow(
			table.IntValue(int64(2450000+rng.Intn(730))),
			table.IntValue(int64(rng.Intn(3640)+1)),
			table.IntValue(int64(rng.Intn(8100)+1)),
			table.IntValue(int64(rng.Intn(12)+1)),
			table.IntValue(qty),
			table.FloatValue(price),
			table.FloatValue(price*float64(qty)*0.3-float64(rng.Intn(500))/100),
		)
	}
	return sales, dates
}

// benchJoin is store_sales ⋈ date_dim on the sold date.
func benchJoin(sales, dates *table.Table) *HashJoin {
	return &HashJoin{
		Left:     &Scan{Name: "store_sales", Sch: sales.Schema},
		Right:    &Scan{Name: "date_dim", Sch: dates.Schema},
		LeftKeys: []int{0}, RightKeys: []int{0},
	}
}

func runBench(b *testing.B, n Node, ctx *Context) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashJoinIntKey joins the fact table with the date dimension on
// one INT key.
func BenchmarkHashJoinIntKey(b *testing.B) {
	sales, dates := benchSales()
	ctx := ctxTables(map[string]*table.Table{"store_sales": sales, "date_dim": dates})
	runBench(b, benchJoin(sales, dates), ctx)
}

// joinedSales materializes the join, the input of ss_1999's filter.
func joinedSales(b *testing.B) *table.Table {
	sales, dates := benchSales()
	joined, err := benchJoin(sales, dates).Run(ctxTables(map[string]*table.Table{"store_sales": sales, "date_dim": dates}))
	if err != nil {
		b.Fatal(err)
	}
	return joined
}

// BenchmarkFilter keeps the joined rows with d_year = 1999.
func BenchmarkFilter(b *testing.B) {
	joined := joinedSales(b)
	f := &Filter{
		Input: &Scan{Name: "joined", Sch: joined.Schema},
		Pred:  &Bin{Op: OpEq, L: &ColRef{Idx: 8}, R: &Lit{V: table.IntValue(1999)}},
	}
	runBench(b, f, ctxTables(map[string]*table.Table{"joined": joined}))
}

// BenchmarkProject selects ss_1999's seven columns from the joined rows
// and computes sales_price * quantity.
func BenchmarkProject(b *testing.B) {
	joined := joinedSales(b)
	var exprs []Expr
	var names []string
	for _, c := range []int{1, 2, 3, 9, 4, 5, 6} {
		exprs = append(exprs, &ColRef{Idx: c})
		names = append(names, joined.Schema.Cols[c].Name)
	}
	exprs = append(exprs, &Bin{Op: OpMul, L: &ColRef{Idx: 5}, R: &ColRef{Idx: 4}})
	names = append(names, "revenue")
	p, err := NewProject(&Scan{Name: "joined", Sch: joined.Schema}, exprs, names)
	if err != nil {
		b.Fatal(err)
	}
	runBench(b, p, ctxTables(map[string]*table.Table{"joined": joined}))
}

// BenchmarkAggregate is store_pl's aggregation: per item, the sum of
// sales_price * quantity and of net_profit.
func BenchmarkAggregate(b *testing.B) {
	sales, _ := benchSales()
	a, err := NewAggregate(&Scan{Name: "store_sales", Sch: sales.Schema}, []int{1}, []AggSpec{
		{Func: AggSum, Arg: &Bin{Op: OpMul, L: &ColRef{Idx: 5}, R: &ColRef{Idx: 4}}, Name: "revenue"},
		{Func: AggSum, Arg: &ColRef{Idx: 6}, Name: "profit"},
	})
	if err != nil {
		b.Fatal(err)
	}
	runBench(b, a, ctxTables(map[string]*table.Table{"store_sales": sales}))
}
