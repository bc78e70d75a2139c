package keyset

import (
	"testing"

	"opdelta/internal/catalog"
	"opdelta/internal/sqlmini"
)

func iv(i int64) catalog.Value { return catalog.NewInt(i) }

// closed returns [lo, hi].
func closed(lo, hi int64) KeyRange {
	return KeyRange{Lo: iv(lo), Hi: iv(hi), HasLo: true, HasHi: true}
}

func TestIntersectsBoundaries(t *testing.T) {
	cases := []struct {
		name string
		a, b KeyRange
		want bool
	}{
		{"disjoint", closed(1, 5), closed(7, 9), false},
		{"overlap", closed(1, 5), closed(4, 9), true},
		{"closed meets closed shares endpoint", closed(1, 5), closed(5, 9), true},
		{"open hi meets closed lo", KeyRange{Lo: iv(1), Hi: iv(5), HasLo: true, HasHi: true, HiOpen: true}, closed(5, 9), false},
		{"closed hi meets open lo", closed(1, 5), KeyRange{Lo: iv(5), Hi: iv(9), HasLo: true, HasHi: true, LoOpen: true}, false},
		{"both open at meeting point", KeyRange{Hi: iv(5), HasHi: true, HiOpen: true}, KeyRange{Lo: iv(5), HasLo: true, LoOpen: true}, false},
		{"unbounded left vs point inside", KeyRange{Hi: iv(5), HasHi: true}, Point(iv(3)), true},
		{"unbounded both sides", KeyRange{}, Point(iv(42)), true},
		{"point vs same point", Point(iv(7)), Point(iv(7)), true},
		{"pk < 10 vs pk > 10", KeyRange{Hi: iv(10), HasHi: true, HiOpen: true}, KeyRange{Lo: iv(10), HasLo: true, LoOpen: true}, false},
		{"pk < 10 vs point 10", KeyRange{Hi: iv(10), HasHi: true, HiOpen: true}, Point(iv(10)), false},
		// Mixed types cannot be ordered: conflict detection must err on
		// the side of a conflict.
		{"incomparable bounds are conservative", Point(iv(1)), Point(catalog.NewString("a")), true},
		{"null bound is conservative", Point(iv(1)), Point(catalog.NewNull(catalog.TypeInt64)), true},
	}
	for _, c := range cases {
		if got := c.a.Intersects(c.b); got != c.want {
			t.Errorf("%s: %s ∩ %s = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
		// Intersection is symmetric.
		if got := c.b.Intersects(c.a); got != c.want {
			t.Errorf("%s (flipped): %s ∩ %s = %v, want %v", c.name, c.b, c.a, got, c.want)
		}
	}
}

func TestContainsBoundaries(t *testing.T) {
	open15 := KeyRange{Lo: iv(1), Hi: iv(5), HasLo: true, HasHi: true, LoOpen: true, HiOpen: true}
	cases := []struct {
		name string
		a, b KeyRange
		want bool
	}{
		{"superset", closed(1, 9), closed(2, 8), true},
		{"equal", closed(1, 9), closed(1, 9), true},
		{"closed contains open at same bounds", closed(1, 5), open15, true},
		{"open does not contain closed at same bounds", open15, closed(1, 5), false},
		{"half-open excludes its endpoint", KeyRange{Lo: iv(1), Hi: iv(9), HasLo: true, HasHi: true, HiOpen: true}, closed(1, 9), false},
		{"unbounded contains bounded", KeyRange{}, closed(1, 9), true},
		{"bounded does not contain unbounded", closed(1, 9), KeyRange{}, false},
		// Containment skips lock acquisition, so an unprovable answer
		// must be "no".
		{"incomparable is not contained", closed(1, 9), Point(catalog.NewString("a")), false},
	}
	for _, c := range cases {
		if got := c.a.Contains(c.b); got != c.want {
			t.Errorf("%s: %s ⊇ %s = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
	}
}

func TestMergeRanges(t *testing.T) {
	ranges := func(rs ...KeyRange) []KeyRange { return rs }
	cases := []struct {
		name string
		in   []KeyRange
		want []string // rendered, in canonical order
	}{
		{"disjoint stay split", ranges(closed(1, 2), closed(5, 6)), []string{"[1, 2]", "[5, 6]"}},
		{"overlap merges", ranges(closed(1, 5), closed(3, 9)), []string{"[1, 9]"}},
		{"touching closed bounds merge", ranges(closed(1, 5), closed(5, 9)), []string{"[1, 9]"}},
		{"half-open meeting closed merges", ranges(
			KeyRange{Lo: iv(1), Hi: iv(5), HasLo: true, HasHi: true, HiOpen: true},
			closed(5, 9)), []string{"[1, 9]"}},
		{"hole at shared open endpoint stays split", ranges(
			KeyRange{Lo: iv(1), Hi: iv(5), HasLo: true, HasHi: true, HiOpen: true},
			KeyRange{Lo: iv(5), Hi: iv(9), HasLo: true, HasHi: true, LoOpen: true}),
			[]string{"[1, 5)", "(5, 9]"}},
		{"unsorted input is canonicalized", ranges(closed(7, 9), closed(1, 2), closed(2, 4)), []string{"[1, 4]", "[7, 9]"}},
		{"unbounded hull swallows the rest", ranges(closed(3, 4), KeyRange{Lo: iv(2), HasLo: true}), []string{"[2, +inf)"}},
		{"adjacent points do not merge", ranges(Point(iv(1)), Point(iv(2))), []string{"[1, 1]", "[2, 2]"}},
		{"duplicate points collapse", ranges(Point(iv(1)), Point(iv(1))), []string{"[1, 1]"}},
	}
	for _, c := range cases {
		got := MergeRanges(c.in)
		if len(got) != len(c.want) {
			t.Errorf("%s: got %v ranges (%v), want %v", c.name, len(got), got, c.want)
			continue
		}
		for i, r := range got {
			if r.String() != c.want[i] {
				t.Errorf("%s: range %d = %s, want %s", c.name, i, r, c.want[i])
			}
		}
	}
}

func TestSortRangesCanonicalOrder(t *testing.T) {
	unbounded := KeyRange{Hi: iv(0), HasHi: true}
	closedAt5 := KeyRange{Lo: iv(5), HasLo: true}
	openAt5 := KeyRange{Lo: iv(5), HasLo: true, LoOpen: true}
	rs := []KeyRange{openAt5, closedAt5, unbounded, closed(1, 2)}
	SortRanges(rs)
	want := []string{"(-inf, 0]", "[1, 2]", "[5, +inf)", "(5, +inf)"}
	for i, r := range rs {
		if r.String() != want[i] {
			t.Fatalf("position %d: got %s, want %s (full: %v)", i, r, want[i], rs)
		}
	}
}

func partsSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "part_id", Type: catalog.TypeInt64},
		catalog.Column{Name: "qty", Type: catalog.TypeInt64},
		catalog.Column{Name: "status", Type: catalog.TypeString},
	)
}

func footprintOf(t *testing.T, sql string) Footprint {
	t.Helper()
	stmt, err := sqlmini.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return StatementFootprint(stmt, partsSchema(), "part_id")
}

func TestStatementFootprint(t *testing.T) {
	// BETWEEN bounds the footprint exactly.
	fp := footprintOf(t, "UPDATE parts SET qty = 1 WHERE part_id BETWEEN 10 AND 19")
	if fp.Whole || len(fp.Ranges) != 1 || !fp.Ranges[0].Contains(closed(10, 19)) || !closed(10, 19).Contains(fp.Ranges[0]) {
		t.Fatalf("BETWEEN footprint = %+v, want exactly [10, 19]", fp)
	}
	// A residual non-key conjunct narrows nothing but loses nothing.
	fp = footprintOf(t, "UPDATE parts SET qty = 1 WHERE part_id >= 10 AND qty >= 500")
	if fp.Whole || len(fp.Ranges) != 1 || fp.Ranges[0].String() != "[10, +inf)" {
		t.Fatalf("mixed AND footprint = %+v, want [10, +inf)", fp)
	}
	// OR unions both sides.
	fp = footprintOf(t, "DELETE FROM parts WHERE part_id = 3 OR part_id = 8")
	if fp.Whole || len(fp.Ranges) != 2 {
		t.Fatalf("OR footprint = %+v, want two points", fp)
	}
	// A string literal against the integer key cannot be ordered:
	// degrade to the whole table rather than guess.
	fp = footprintOf(t, "DELETE FROM parts WHERE part_id = 'oops'")
	if !fp.Whole {
		t.Fatalf("mismatched literal type should widen to whole table, got %+v", fp)
	}
	// NULL comparisons likewise defeat the analysis.
	fp = footprintOf(t, "DELETE FROM parts WHERE part_id = NULL")
	if !fp.Whole {
		t.Fatalf("NULL key literal should widen to whole table, got %+v", fp)
	}
	// A predicate over a non-key column is unbounded.
	fp = footprintOf(t, "DELETE FROM parts WHERE qty >= 500")
	if !fp.Whole {
		t.Fatalf("non-key predicate should be whole table, got %+v", fp)
	}
	// Strict comparisons produce open bounds: pk < 10 excludes 10.
	fp = footprintOf(t, "DELETE FROM parts WHERE part_id < 10")
	if fp.Whole || len(fp.Ranges) != 1 || fp.Ranges[0].Intersects(Point(iv(10))) {
		t.Fatalf("pk < 10 footprint = %+v, should exclude the point 10", fp)
	}
	// INSERT covers exactly its literal keys.
	fp = footprintOf(t, "INSERT INTO parts (part_id, qty) VALUES (7, 1), (9, 2)")
	if fp.Whole || len(fp.Ranges) != 2 {
		t.Fatalf("INSERT footprint = %+v, want two points", fp)
	}
	// An UPDATE that reassigns the key adds the new key to its
	// footprint (the row appears there after the statement).
	fp = footprintOf(t, "UPDATE parts SET part_id = 99 WHERE part_id = 1")
	if fp.Whole || !fp.Overlaps(Footprint{Ranges: []KeyRange{Point(iv(99))}}) {
		t.Fatalf("PK-assigning UPDATE footprint = %+v, should include 99", fp)
	}
	// A provably empty footprint is disjoint from everything.
	fp = footprintOf(t, "DELETE FROM parts WHERE part_id > 10 AND part_id < 5")
	if !fp.Empty() {
		t.Fatalf("contradictory predicate footprint = %+v, want empty", fp)
	}
}

func TestFootprintIntFloatCoercion(t *testing.T) {
	schema := catalog.NewSchema(catalog.Column{Name: "k", Type: catalog.TypeFloat64})
	stmt, err := sqlmini.Parse("DELETE FROM t WHERE k = 5")
	if err != nil {
		t.Fatal(err)
	}
	fp := StatementFootprint(stmt, schema, "k")
	if fp.Whole || len(fp.Ranges) != 1 {
		t.Fatalf("int literal on float key = %+v, want one point", fp)
	}
	if !fp.Ranges[0].Intersects(Point(catalog.NewFloat(5))) {
		t.Fatalf("coerced point %s should equal 5.0", fp.Ranges[0])
	}
}

func TestFootprintWithoutKey(t *testing.T) {
	for _, src := range []string{"DELETE FROM t WHERE k = 5", "DELETE FROM parts WHERE part_id = 1"} {
		stmt, err := sqlmini.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if fp := StatementFootprint(stmt, partsSchema(), ""); !fp.Whole {
			t.Fatalf("%q: no PK should mean whole table, got %+v", src, fp)
		}
	}
}

func TestFootprintDisjointRanges(t *testing.T) {
	a := footprintOf(t, "UPDATE parts SET status = 'x' WHERE part_id BETWEEN 0 AND 99")
	b := footprintOf(t, "UPDATE parts SET status = 'y' WHERE part_id BETWEEN 100 AND 199")
	if a.Whole || b.Whole {
		t.Fatalf("range predicates should not degrade to whole-table: %+v %+v", a, b)
	}
	if a.Overlaps(b) {
		t.Fatalf("disjoint BETWEEN ranges reported overlapping")
	}
	c := footprintOf(t, "UPDATE parts SET status = 'z' WHERE part_id BETWEEN 50 AND 150")
	if !a.Overlaps(c) || !b.Overlaps(c) {
		t.Fatalf("straddling range should overlap both neighbours")
	}
}

func TestFootprintPointsAndInserts(t *testing.T) {
	a := footprintOf(t, "DELETE FROM parts WHERE part_id = 7")
	b := footprintOf(t, "INSERT INTO parts VALUES (7, 10, 'new')")
	cCols := footprintOf(t, "INSERT INTO parts (part_id, qty) VALUES (8, 1)")
	if !a.Overlaps(b) {
		t.Fatalf("delete of key 7 must conflict with insert of key 7")
	}
	if a.Overlaps(cCols) {
		t.Fatalf("key 7 should not conflict with key 8")
	}
}

func TestFootprintConservativeFallbacks(t *testing.T) {
	cases := []string{
		"UPDATE parts SET status = 'x' WHERE qty > 5",              // non-key predicate
		"DELETE FROM parts",                                        // no predicate
		"UPDATE parts SET part_id = part_id + 1 WHERE part_id = 3", // computed key assignment
	}
	for _, src := range cases {
		if got := footprintOf(t, src); !got.Whole {
			t.Errorf("%q: want whole-table footprint, got %+v", src, got)
		}
	}
}

func TestFootprintAndOrComposition(t *testing.T) {
	// AND with a non-key term keeps the key bound.
	a := footprintOf(t, "UPDATE parts SET status = 'x' WHERE part_id >= 10 AND part_id <= 20 AND qty > 0")
	if a.Whole {
		t.Fatalf("AND with non-key term lost the key bound")
	}
	b := footprintOf(t, "DELETE FROM parts WHERE part_id = 5 OR part_id = 15")
	if b.Whole {
		t.Fatalf("OR of key points degraded to whole-table")
	}
	if !a.Overlaps(b) {
		t.Fatalf("[10,20] must overlap {5,15}")
	}
	c := footprintOf(t, "DELETE FROM parts WHERE part_id = 5 OR qty = 1")
	if !c.Whole {
		t.Fatalf("OR with non-key disjunct must be whole-table")
	}
}

func TestFootprintKeyUpdateMoves(t *testing.T) {
	// Rewriting the key touches both the old and the new key value.
	a := footprintOf(t, "UPDATE parts SET part_id = 99 WHERE part_id = 1")
	hit := func(k int64) bool {
		return a.Overlaps(Footprint{Ranges: []KeyRange{Point(iv(k))}})
	}
	if a.Whole || !hit(1) || !hit(99) || hit(50) {
		t.Fatalf("key-move footprint wrong: %+v", a)
	}
}
