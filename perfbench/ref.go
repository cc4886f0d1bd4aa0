package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/datagen"
	"repro/internal/value"
)

// refDB is the reference evaluator's copy of the logical base relations:
// the data the server generates from the same configuration, plus the
// writes the server acknowledged. Values are kept in a normalized text
// form that server answers (JSON) and in-process answers (tuples) both map
// to.
type refDB struct {
	rels map[string]*refRel
}

type refRel struct {
	rows  [][]string
	alive []bool
	// index maps column → value → row positions, built on first use.
	index map[int]map[string][]int
}

func newRefDB(data *datagen.Marketplace) *refDB {
	db := &refDB{rels: map[string]*refRel{}}
	for name, rows := range map[string][]value.Tuple{
		"Users": data.Users, "Prefs": data.Prefs, "Products": data.Products,
		"Orders": data.Orders, "Carts": data.Carts, "Visits": data.Visits,
	} {
		r := &refRel{index: map[int]map[string][]int{}}
		for _, t := range rows {
			r.add(normTuple(t))
		}
		db.rels[name] = r
	}
	return db
}

func (r *refRel) add(row []string) {
	id := len(r.rows)
	r.rows = append(r.rows, row)
	r.alive = append(r.alive, true)
	for col, ix := range r.index {
		ix[row[col]] = append(ix[row[col]], id)
	}
}

func (r *refRel) lookup(col int, v string) []int {
	ix, ok := r.index[col]
	if !ok {
		ix = map[string][]int{}
		for id, row := range r.rows {
			ix[row[col]] = append(ix[row[col]], id)
		}
		r.index[col] = ix
	}
	return ix[v]
}

func (db *refDB) insert(rel string, t value.Tuple) { db.rels[rel].add(normTuple(t)) }

// delete removes one live copy of the row, reporting whether one existed.
func (db *refDB) delete(rel string, t value.Tuple) bool {
	r := db.rels[rel]
	row := normTuple(t)
	for _, id := range r.lookup(0, row[0]) {
		if r.alive[id] && equalRow(r.rows[id], row) {
			r.alive[id] = false
			return true
		}
	}
	return false
}

func equalRow(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// eval answers q under set semantics (the mediator's), returning the
// distinct head tuples keyed by rowKey. It is a plain backtracking join
// that always extends the atom with the most bound arguments next,
// probing a column index on one of them.
func (db *refDB) eval(q query) map[string]bool {
	out := map[string]bool{}
	bind := map[string]string{}
	done := make([]bool, len(q.body))
	head := make([]string, len(q.head))
	var rec func(left int)
	rec = func(left int) {
		if left == 0 {
			for i, h := range q.head {
				head[i] = bind[h]
			}
			out[rowKey(head)] = true
			return
		}
		best, bestBound, probe := -1, -1, -1
		for i, a := range q.body {
			if done[i] {
				continue
			}
			n, p := 0, -1
			for j, t := range a.args {
				if _, ok := bind[t.name]; t.lit || ok {
					n++
					if p < 0 {
						p = j
					}
				}
			}
			if n > bestBound {
				best, bestBound, probe = i, n, p
			}
		}
		a := q.body[best]
		r := db.rels[a.rel]
		done[best] = true
		try := func(id int) {
			if !r.alive[id] {
				return
			}
			row := r.rows[id]
			var added []string
			ok := true
			for j, t := range a.args {
				want, bound := t.name, t.lit
				if !t.lit {
					want, bound = bind[t.name]
				}
				if t.lit {
					want = "s:" + t.name
				}
				if bound {
					if row[j] != want {
						ok = false
						break
					}
					continue
				}
				bind[t.name] = row[j]
				added = append(added, t.name)
			}
			if ok {
				rec(left - 1)
			}
			for _, v := range added {
				delete(bind, v)
			}
		}
		if probe >= 0 {
			t := a.args[probe]
			v := bind[t.name]
			if t.lit {
				v = "s:" + t.name
			}
			for _, id := range r.lookup(probe, v) {
				try(id)
			}
		} else {
			for id := range r.rows {
				try(id)
			}
		}
		done[best] = false
	}
	rec(len(q.body))
	return out
}

func rowKey(cols []string) string { return strings.Join(cols, "\x1f") }

func normValue(v value.Value) string {
	switch x := v.(type) {
	case value.Str:
		return "s:" + string(x)
	case value.Int:
		return "n:" + strconv.FormatFloat(float64(x), 'g', -1, 64)
	case value.Float:
		return "n:" + strconv.FormatFloat(float64(x), 'g', -1, 64)
	case value.Null, nil:
		return "null"
	default:
		return "?:" + v.String()
	}
}

func normTuple(t value.Tuple) []string {
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = normValue(v)
	}
	return out
}

func normJSON(v any) string {
	switch x := v.(type) {
	case string:
		return "s:" + x
	case json.Number:
		f, err := x.Float64()
		if err != nil {
			return "?:" + x.String()
		}
		return "n:" + strconv.FormatFloat(f, 'g', -1, 64)
	case nil:
		return "null"
	default:
		return fmt.Sprintf("?:%v", x)
	}
}

// answer is a multiset of result rows in normalized form.
type answer map[string]int

func (a answer) addJSON(row []any) {
	cols := make([]string, len(row))
	for i, v := range row {
		cols[i] = normJSON(v)
	}
	a[rowKey(cols)]++
}

// matches reports whether the answer is exactly the reference set: the
// same rows, each delivered once.
func (a answer) matches(ref map[string]bool) bool {
	if len(a) != len(ref) {
		return false
	}
	for k, n := range a {
		if n != 1 || !ref[k] {
			return false
		}
	}
	return true
}

// diff summarizes a mismatch for the failure report.
func (a answer) diff(ref map[string]bool) string {
	var extra, missing []string
	for k, n := range a {
		if !ref[k] || n != 1 {
			extra = append(extra, fmt.Sprintf("%s×%d", strings.ReplaceAll(k, "\x1f", ","), n))
		}
	}
	for k := range ref {
		if a[k] == 0 {
			missing = append(missing, strings.ReplaceAll(k, "\x1f", ","))
		}
	}
	sort.Strings(extra)
	sort.Strings(missing)
	return fmt.Sprintf("%d rows, %d expected; unexpected %v; missing %v", len(a), len(ref), head3(extra), head3(missing))
}

func head3(s []string) []string {
	if len(s) > 3 {
		return s[:3]
	}
	return s
}

// decodeAnswer parses a kept response body: the materialized JSON
// {"rows":[...]} or the NDJSON row records of a stream.
func decodeAnswer(body []byte, stream bool) (answer, error) {
	a := answer{}
	if stream {
		for _, line := range bytes.Split(body, []byte{'\n'}) {
			if !bytes.HasPrefix(line, []byte(`{"row"`)) {
				continue
			}
			var rec struct {
				Row []any `json:"row"`
			}
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.UseNumber()
			if err := dec.Decode(&rec); err != nil {
				return nil, err
			}
			a.addJSON(rec.Row)
		}
		return a, nil
	}
	var resp struct {
		Rows [][]any `json:"rows"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&resp); err != nil {
		return nil, err
	}
	for _, r := range resp.Rows {
		a.addJSON(r)
	}
	return a, nil
}

// checkStream replays the stream against the reference database in
// order: acknowledged writes are applied, and every checked read that
// succeeded is compared with the reference answer at its position. It
// returns the indices of reads whose answers were wrong, with a reason.
// Operations of one user are serialized by the stream's dependencies, so
// stream order is the order the server applied them in for every row a
// read can see.
func checkStream(db *refDB, reqs []request, ok []bool, answers map[int]answer) map[int]string {
	wrong := map[int]string{}
	for i := range reqs {
		r := &reqs[i]
		switch {
		case r.kind == kindInsert && ok[i]:
			db.insert(r.rel, r.row)
		case r.kind == kindDelete && ok[i]:
			if !db.delete(r.rel, r.row) {
				wrong[i] = "deleted a row the reference does not hold"
			}
		case r.kind == kindQuery && r.check && ok[i]:
			got, have := answers[i]
			if !have {
				continue
			}
			if ref := db.eval(r.q); !got.matches(ref) {
				wrong[i] = got.diff(ref)
			}
		}
	}
	return wrong
}
