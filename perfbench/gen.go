package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/datagen"
	"repro/internal/lang"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/value"
)

// term is one argument of a query atom: a variable, or a string constant
// when lit is set.
type term struct {
	name string
	lit  bool
}

func tv(name string) term { return term{name: name} }
func tc(s string) term    { return term{name: s, lit: true} }

type atom struct {
	rel  string
	args []term
}

// query is a conjunctive query over the marketplace's logical schema. It is
// the single source of both the SQL text sent to the server and the
// reference evaluation the answer is checked against.
type query struct {
	head []string
	body []atom
}

// sql renders the query as the server's mini-SQL: one alias per atom,
// a constant becomes a column = 'literal' predicate, and every later
// occurrence of a variable is equated with its first one.
func (q query) sql() string {
	type occ struct{ atom, pos int }
	first := map[string]occ{}
	var where []string
	col := func(o occ) string {
		return fmt.Sprintf("t%d.%s", o.atom, scenario.LogicalSchema[q.body[o.atom].rel][o.pos])
	}
	var from []string
	for i, a := range q.body {
		from = append(from, fmt.Sprintf("%s t%d", a.rel, i))
		for j, t := range a.args {
			o := occ{i, j}
			switch f, seen := first[t.name]; {
			case t.lit:
				where = append(where, fmt.Sprintf("%s = '%s'", col(o), t.name))
			case seen:
				where = append(where, fmt.Sprintf("%s = %s", col(f), col(o)))
			default:
				first[t.name] = o
			}
		}
	}
	sel := make([]string, len(q.head))
	for i, h := range q.head {
		sel[i] = col(first[h])
	}
	s := "SELECT " + strings.Join(sel, ", ") + " FROM " + strings.Join(from, ", ")
	if len(where) > 0 {
		s += " WHERE " + strings.Join(where, " AND ")
	}
	return s
}

// vars lists the query's variables in body order, each once.
func (q query) vars() []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range q.body {
		for _, t := range a.args {
			if !t.lit && !seen[t.name] {
				seen[t.name] = true
				out = append(out, t.name)
			}
		}
	}
	return out
}

type kind uint8

const (
	kindQuery kind = iota
	kindInsert
	kindDelete
)

// request is one generated operation of a workload stream, with its HTTP
// body rendered before timing starts.
type request struct {
	kind   kind
	class  string // the template or role, for per-class reports
	q      query  // reads
	sql    string
	stream bool        // NDJSON response
	rel    string      // writes
	row    value.Tuple // writes
	user   string      // the user whose rows a write-mix operation touches
	check  bool        // compare the answer with the reference evaluator
	fresh  bool        // a join shape no earlier request of the stream had
	dep    int32       // an earlier request that must finish first (-1: none)
	path   string
	body   []byte
}

func (r *request) render() {
	switch r.kind {
	case kindQuery:
		r.sql = r.q.sql()
		r.path = "/query"
		r.body, _ = json.Marshal(struct {
			Lang   string `json:"lang"`
			Query  string `json:"query"`
			Stream bool   `json:"stream,omitempty"`
		}{"sql", r.sql, r.stream})
	default:
		r.path = "/insert"
		if r.kind == kindDelete {
			r.path = "/delete"
		}
		r.body, _ = json.Marshal(struct {
			Relation string  `json:"relation"`
			Rows     [][]any `json:"rows"`
		}{r.rel, [][]any{jsonRow(r.row)}})
	}
}

func jsonRow(t value.Tuple) []any {
	out := make([]any, len(t))
	for i, v := range t {
		switch x := v.(type) {
		case value.Str:
			out[i] = string(x)
		case value.Int:
			out[i] = int64(x)
		case value.Float:
			out[i] = float64(x)
		default:
			out[i] = v.String()
		}
	}
	return out
}

// gen draws one workload stream. Everything it produces is a function of
// the dataset and the seed.
type gen struct {
	data   *datagen.Marketplace
	rng    *rand.Rand
	users  *rand.Zipf
	cat    map[string]string // pid → category
	pids   []string
	cities []string
	cats   []string
	// seen holds the canonical keys of every shape emitted so far; fresh
	// shapes must add a new one.
	seen map[string]bool
	// Decks deal request classes, cities and categories in blocks (see
	// deck.draw).
	mix, cityDeck, catDeck deck
}

func newGen(data *datagen.Marketplace, seed int64) *gen {
	rng := rand.New(rand.NewSource(seed))
	g := &gen{
		data:  data,
		rng:   rng,
		users: rand.NewZipf(rng, data.Cfg.ZipfS, 1, uint64(data.Cfg.Users-1)),
		cat:   map[string]string{},
		seen:  map[string]bool{},
	}
	cities := map[string]bool{}
	for _, u := range data.Users {
		if c := string(u[2].(value.Str)); !cities[c] {
			cities[c] = true
			g.cities = append(g.cities, c)
		}
	}
	cats := map[string]bool{}
	for _, p := range data.Products {
		pid, c := string(p[0].(value.Str)), string(p[1].(value.Str))
		g.cat[pid] = c
		g.pids = append(g.pids, pid)
		if !cats[c] {
			cats[c] = true
			g.cats = append(g.cats, c)
		}
	}
	return g
}

func (g *gen) zipfUser() string    { return datagen.UID(int(g.users.Uint64())) }
func (g *gen) uniformUser() string { return datagen.UID(g.rng.Intn(g.data.Cfg.Users)) }
func (g *gen) sample() bool        { return g.rng.Intn(8) == 0 }

func readReq(class string, q query, stream, check bool) request {
	return request{kind: kindQuery, class: class, q: q, stream: stream, check: check, dep: -1}
}

// The fixed query templates of the three workloads.

func prefsQuery(uid string) query {
	return query{head: []string{"key", "val"}, body: []atom{{"Prefs", []term{tc(uid), tv("key"), tv("val")}}}}
}

func cartsQuery(uid string) query {
	return query{head: []string{"pid", "qty"}, body: []atom{{"Carts", []term{tc(uid), tv("pid"), tv("qty")}}}}
}

func profileQuery(uid string) query {
	return query{head: []string{"name", "pid"}, body: []atom{
		{"Users", []term{tc(uid), tv("name"), tv("city")}},
		{"Orders", []term{tv("oid"), tc(uid), tv("pid"), tv("amount")}},
	}}
}

// searchQuery is the personalized search of the scenario (experiment E2):
// products of one category a user both bought and browsed.
func searchQuery(uid, category string) query {
	return query{head: []string{"pid", "dur"}, body: []atom{
		{"Orders", []term{tv("oid"), tc(uid), tv("pid"), tv("amount")}},
		{"Visits", []term{tc(uid), tv("pid"), tv("dur")}},
		{"Products", []term{tv("pid"), tc(category), tv("descr")}},
	}}
}

// cityJoinQuery is Users⋈Orders⋈Visits over one city: every purchase of
// the city's users with the dwell times of their visits to it.
func cityJoinQuery(city string) query {
	return query{head: []string{"uid", "pid", "dur"}, body: []atom{
		{"Users", []term{tv("uid"), tv("name"), tc(city)}},
		{"Orders", []term{tv("oid"), tv("uid"), tv("pid"), tv("amount")}},
		{"Visits", []term{tv("uid"), tv("pid"), tv("dur")}},
	}}
}

// categoryJoinQuery is Users⋈Orders⋈Visits⋈Products over one category.
func categoryJoinQuery(category string) query {
	return query{head: []string{"name", "pid", "descr", "dur"}, body: []atom{
		{"Users", []term{tv("uid"), tv("name"), tv("city")}},
		{"Orders", []term{tv("oid"), tv("uid"), tv("pid"), tv("amount")}},
		{"Visits", []term{tv("uid"), tv("pid"), tv("dur")}},
		{"Products", []term{tv("pid"), tc(category), tv("descr")}},
	}}
}

// hotLookup is the paper's E1 mix over Zipf-skewed user keys: 40 %
// preferences and 40 % carts by user (key-value store), 20 % the
// Users⋈Orders profile (relational store).
func (g *gen) hotLookup(n int) []request {
	out := make([]request, 0, n)
	for len(out) < n {
		uid := g.zipfUser()
		switch g.mix.draw(g.rng, []int{4, 4, 2}) {
		case 0:
			out = append(out, readReq("prefs", prefsQuery(uid), false, g.sample()))
		case 1:
			out = append(out, readReq("carts", cartsQuery(uid), false, g.sample()))
		default:
			out = append(out, readReq("profile", profileQuery(uid), false, g.sample()))
		}
	}
	return out
}

// deck deals the classes of a stream so that every block of sum(shares)
// draws holds exactly shares[c] of class c, in a random order: the mix
// does not drift with the seed.
type deck struct{ left []int }

func (d *deck) draw(rng *rand.Rand, shares []int) int {
	if len(d.left) == 0 {
		for c, k := range shares {
			for ; k > 0; k-- {
				d.left = append(d.left, c)
			}
		}
		rng.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	c := d.left[len(d.left)-1]
	d.left = d.left[:len(d.left)-1]
	return c
}

// ones gives n classes one share each.
func ones(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// adhocJoin mixes, in every 20 requests, 12 personalized searches, 6
// streamed unselective joins (3 over a city, 3 over a category) and (with
// shapes set; searches otherwise) 2 first-seen join shapes. The joins do
// most of the work; the searches are the majority so that the median
// request lies inside one class rather than between two.
func (g *gen) adhocJoin(n int, shapes bool) ([]request, error) {
	out := make([]request, 0, n)
	for _, q := range []query{searchQuery("u0", "c"), cityJoinQuery("c"), categoryJoinQuery("c")} {
		k, err := canonicalKey(q)
		if err != nil {
			return nil, err
		}
		g.seen[k] = true
	}
	for len(out) < n {
		switch c := g.mix.draw(g.rng, []int{2, 12, 3, 3}); {
		case c == 0 && shapes:
			q, err := g.freshShape()
			if err != nil {
				return nil, err
			}
			req := readReq("shape", q, true, true)
			req.fresh = true
			out = append(out, req)
		case c <= 1:
			out = append(out, readReq("search", searchQuery(g.zipfUser(), g.cats[g.rng.Intn(len(g.cats))]), false, g.sample()))
		case c == 2:
			city := g.cities[g.cityDeck.draw(g.rng, ones(len(g.cities)))]
			out = append(out, readReq("city_join", cityJoinQuery(city), true, g.sample()))
		default:
			category := g.cats[g.catDeck.draw(g.rng, ones(len(g.cats)))]
			out = append(out, readReq("category_join", categoryJoinQuery(category), true, g.sample()))
		}
	}
	return out, nil
}

func canonicalKey(q query) (string, error) {
	cq, err := lang.ParseSQL(q.sql(), scenario.LogicalSchema)
	if err != nil {
		return "", fmt.Errorf("parse %q: %w", q.sql(), err)
	}
	fp, err := service.Canonicalize(cq)
	if err != nil {
		return "", err
	}
	return fp.Key, nil
}

// freshShape draws join shapes until one canonicalizes to a key no earlier
// request had. Shapes are connected and answerable: every key-value atom
// (Prefs, Carts) has its user bound, by a constant or a join on uid.
// Either one user's rows are joined (a uid constant), or one city's users
// are joined to purchases, visits or carts that agree on the product, so
// results stay in the hundreds of rows.
func (g *gen) freshShape() (query, error) {
	for try := 0; try < 10000; try++ {
		var q query
		if g.rng.Intn(10) < 7 {
			q = g.userShape()
		} else {
			q = g.cityShape()
		}
		g.pickHead(&q)
		k, err := canonicalKey(q)
		if err != nil {
			return query{}, err
		}
		if !g.seen[k] {
			g.seen[k] = true
			return q, nil
		}
	}
	return query{}, fmt.Errorf("shape generator exhausted")
}

// userShape joins 1–3 of one user's relations, optionally agreeing on the
// product and extended to the product catalog.
func (g *gen) userShape() query {
	uid := g.uniformUser()
	rels := []string{"Users", "Orders", "Visits", "Carts", "Prefs"}
	g.rng.Shuffle(len(rels), func(i, j int) { rels[i], rels[j] = rels[j], rels[i] })
	rels = rels[:1+g.rng.Intn(3)]
	var q query
	var pidVars []string
	for i, rel := range rels {
		s := fmt.Sprint(i)
		switch rel {
		case "Users":
			city := tv("city" + s)
			if g.rng.Intn(5) == 0 {
				city = tc(g.cities[g.rng.Intn(len(g.cities))])
			}
			q.body = append(q.body, atom{rel, []term{tc(uid), tv("name" + s), city}})
		case "Orders":
			q.body = append(q.body, atom{rel, []term{tv("oid" + s), tc(uid), tv("pid" + s), tv("amount" + s)}})
			pidVars = append(pidVars, "pid"+s)
		case "Visits":
			q.body = append(q.body, atom{rel, []term{tc(uid), tv("pid" + s), tv("dur" + s)}})
			pidVars = append(pidVars, "pid"+s)
		case "Carts":
			q.body = append(q.body, atom{rel, []term{tc(uid), tv("pid" + s), tv("qty" + s)}})
			pidVars = append(pidVars, "pid"+s)
		case "Prefs":
			key := tv("key" + s)
			if g.rng.Intn(3) == 0 {
				key = tc([]string{"theme", "lang", "currency"}[g.rng.Intn(3)])
			}
			q.body = append(q.body, atom{rel, []term{tc(uid), key, tv("val" + s)}})
		}
	}
	if len(pidVars) >= 2 && g.rng.Intn(2) == 0 {
		unify(&q, pidVars[1], pidVars[0])
		pidVars = pidVars[:1]
	}
	if len(pidVars) > 0 && g.rng.Intn(2) == 0 {
		g.addProducts(&q, pidVars[g.rng.Intn(len(pidVars))])
	}
	return q
}

// cityShape joins one city's users to 1–2 of their purchases, visits and
// carts; two of them always agree on the product.
func (g *gen) cityShape() query {
	q := query{body: []atom{{"Users", []term{tv("uid"), tv("name"), tc(g.cities[g.rng.Intn(len(g.cities))])}}}}
	rels := []string{"Orders", "Visits", "Carts"}
	g.rng.Shuffle(len(rels), func(i, j int) { rels[i], rels[j] = rels[j], rels[i] })
	rels = rels[:1+g.rng.Intn(2)]
	for i, rel := range rels {
		s := fmt.Sprint(i)
		switch rel {
		case "Orders":
			q.body = append(q.body, atom{rel, []term{tv("oid" + s), tv("uid"), tv("pid"), tv("amount" + s)}})
		case "Visits":
			q.body = append(q.body, atom{rel, []term{tv("uid"), tv("pid"), tv("dur" + s)}})
		case "Carts":
			q.body = append(q.body, atom{rel, []term{tv("uid"), tv("pid"), tv("qty" + s)}})
		}
	}
	if g.rng.Intn(2) == 0 {
		g.addProducts(&q, "pid")
	}
	return q
}

func (g *gen) addProducts(q *query, pid string) {
	category := tv("category")
	if g.rng.Intn(2) == 0 {
		category = tc(g.cats[g.rng.Intn(len(g.cats))])
	}
	q.body = append(q.body, atom{"Products", []term{tv(pid), category, tv("descr")}})
}

// unify renames variable from to into throughout the body.
func unify(q *query, from, into string) {
	for _, a := range q.body {
		for j, t := range a.args {
			if !t.lit && t.name == from {
				a.args[j] = tv(into)
			}
		}
	}
}

// pickHead projects 1–4 of the body's variables, in random order.
func (g *gen) pickHead(q *query) {
	vars := q.vars()
	g.rng.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
	q.head = vars[:1+g.rng.Intn(min(4, len(vars)))]
}

// writeMix interleaves episodes of concurrently active users. An episode
// reads one user's cart and personalized search, inserts an order, a
// visit of the same product and a cart line, reads them back, deletes
// all three and reads again: 24 reads and 6 writes, so base sizes stay
// level. Operations of one user are chained through dep so that each is
// sent only after the previous one finished; reads right after the
// inserts and deletes are always checked (the user must see its own
// writes). prefix namespaces generated order IDs. With drain set the
// stream finishes every episode it starts.
func (g *gen) writeMix(n int, prefix string, drain bool) []request {
	const active, episodeLen = 6, 30
	type episode struct {
		ops  []request
		next int
	}
	busy := map[string]bool{}
	last := map[string]int32{}
	var out []request
	seq := 0
	start := func() *episode {
		uid := g.uniformUser()
		for busy[uid] {
			uid = g.uniformUser()
		}
		busy[uid] = true
		pid := g.pids[g.rng.Intn(len(g.pids))]
		category := g.cat[pid]
		seq++
		order := value.TupleOf(fmt.Sprintf("%s%07d", prefix, seq), uid, pid, float64(5+g.rng.Intn(200))+0.5)
		visit := value.TupleOf(uid, pid, int64(1000+seq))
		cart := value.TupleOf(uid, g.pids[g.rng.Intn(len(g.pids))], int64(100+seq))
		carts := func(check bool) request { return readReq("wcarts", cartsQuery(uid), false, check) }
		search := func(check bool) request { return readReq("wsearch", searchQuery(uid, category), false, check) }
		write := func(k kind, rel string, row value.Tuple) request {
			return request{kind: k, class: map[kind]string{kindInsert: "insert", kindDelete: "delete"}[k], rel: rel, row: row, dep: -1}
		}
		e := &episode{}
		e.ops = append(e.ops, carts(g.sample()), search(g.sample()),
			write(kindInsert, "Orders", order), write(kindInsert, "Visits", visit), write(kindInsert, "Carts", cart),
			search(true), carts(true))
		for i := 0; i < 7; i++ {
			e.ops = append(e.ops, search(g.sample()), carts(g.sample()))
		}
		e.ops = append(e.ops, write(kindDelete, "Carts", cart), write(kindDelete, "Visits", visit), write(kindDelete, "Orders", order),
			search(true), carts(true), search(g.sample()), carts(g.sample()), search(g.sample()), carts(g.sample()))
		for i := range e.ops {
			e.ops[i].user = uid
		}
		return e
	}
	// Round robin over the slots: one user's operations are `active`
	// requests apart, so each usually finishes before the next one is due.
	// Slot k starts its first episode k/active of an episode late and
	// restarts in place, so the slots' writes stay evenly staggered.
	eps := make([]*episode, active)
	live := 0
	for round := 0; ; round++ {
		for k := range eps {
			if eps[k] == nil {
				if len(out) >= n || round < k*episodeLen/active {
					continue
				}
				eps[k] = start()
				live++
			}
			e := eps[k]
			op := e.ops[e.next]
			e.next++
			op.dep = -1
			if d, ok := last[op.user]; ok {
				op.dep = d
			}
			last[op.user] = int32(len(out))
			out = append(out, op)
			if e.next == len(e.ops) {
				delete(busy, op.user)
				eps[k] = nil
				live--
			}
			if len(out) >= n && !drain {
				return out
			}
		}
		if len(out) >= n && live == 0 {
			return out
		}
	}
}

// workloadStream generates the timed stream of a workload (n requests)
// and renders every body.
func workloadStream(data *datagen.Marketplace, workload string, seed int64, n int) ([]request, error) {
	g := newGen(data, seed)
	var reqs []request
	var err error
	switch workload {
	case "hot_lookup":
		reqs = g.hotLookup(n)
	case "adhoc_join":
		reqs, err = g.adhocJoin(n, true)
	case "write_mix":
		reqs = g.writeMix(n, "w", false)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	for i := range reqs {
		reqs[i].render()
	}
	return reqs, nil
}

// warmStream generates the untimed warm-up traffic: the workload's
// templates without first-seen shapes, and write-mix episodes that are
// all finished, drawn from a seed the timed stream does not use.
func warmStream(data *datagen.Marketplace, workload string, seed int64, n int) ([]request, error) {
	g := newGen(data, seed^0x5eed)
	var reqs []request
	var err error
	switch workload {
	case "hot_lookup":
		reqs = g.hotLookup(n)
	case "adhoc_join":
		reqs, err = g.adhocJoin(n, false)
	case "write_mix":
		reqs = g.writeMix(n, "x", true)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	for i := range reqs {
		reqs[i].render()
		reqs[i].check = false
	}
	return reqs, nil
}
