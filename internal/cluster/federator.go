package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"papimc/internal/pcp"
	"papimc/internal/pmproxy"
)

// Source is what a federator needs from each child: the namespace and a
// fetch. pcp.Client, pcp.Daemon (via Node.Source), and Federator itself
// all satisfy it, which is what lets trees stack to any depth.
type Source interface {
	Names() ([]pcp.NameEntry, error)
	Fetch(pmids []uint32) (pcp.FetchResult, error)
}

// Child declares one downstream of a federator.
type Child struct {
	// Name labels the edge ("node003" for a leaf edge, "zone1" higher up).
	Name string
	// Src is the child's metric source.
	Src Source
	// Nodes are the leaf node names reachable through this child — the
	// blast radius named in a PartialError when the whole edge fails.
	Nodes []string
	// Qualify, when non-empty, prefixes every child metric name with
	// "<Qualify>:". Leaf edges set it to the node name; upper edges leave
	// it empty because zone namespaces are already qualified.
	Qualify string
}

// routeEntry maps one federator PMID to its owner.
type routeEntry struct {
	child     int
	childPMID uint32
}

// EdgeStats is one edge's name and counters.
type EdgeStats struct {
	Edge  string
	Stats pmproxy.UpstreamStats
}

// Federator is one interior vertex of the aggregation tree. It merges
// its children's namespaces into a single qualified namespace with its
// own PMID assignment (sorted-name order, like a daemon) and serves
// scatter-gather fetches over them: requested PMIDs are routed to the
// owning children, fetched concurrently through per-edge
// pmproxy.Upstream clients (deadline, hedge, retry), and the answers
// are merged. A failed edge contributes StatusNodeDown values and its
// node list to the typed partial error instead of failing the query.
type Federator struct {
	name     string
	children []Child
	ups      []*pmproxy.Upstream
	names    []pcp.NameEntry
	route    []routeEntry // route[i] owns PMID i+1
	nodes    []string     // union of children's Nodes, sorted
}

// NewFederator builds a federator over children, reading each child's
// namespace once. Every edge gets the same policy; heterogeneous
// policies can be modelled by stacking federators.
func NewFederator(name string, children []Child, policy pmproxy.EdgePolicy) (*Federator, error) {
	f := &Federator{name: name, children: children}
	type entry struct {
		name string
		r    routeEntry
	}
	var entries []entry
	nodeSet := make(map[string]bool)
	for i, c := range children {
		if c.Src == nil {
			return nil, fmt.Errorf("cluster: federator %s: child %s has no source", name, c.Name)
		}
		ents, err := c.Src.Names()
		if err != nil {
			return nil, fmt.Errorf("cluster: federator %s: listing child %s: %w", name, c.Name, err)
		}
		for _, en := range ents {
			qn := en.Name
			if c.Qualify != "" {
				qn = c.Qualify + ":" + qn
			}
			entries = append(entries, entry{name: qn, r: routeEntry{child: i, childPMID: en.PMID}})
		}
		for _, nd := range c.Nodes {
			nodeSet[nd] = true
		}
		f.ups = append(f.ups, pmproxy.NewUpstream(name+"->"+c.Name, c.Src.Fetch, policy))
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	f.names = make([]pcp.NameEntry, len(entries))
	f.route = make([]routeEntry, len(entries))
	for i, en := range entries {
		if i > 0 && en.name == entries[i-1].name {
			return nil, fmt.Errorf("cluster: federator %s: duplicate metric %q", name, en.name)
		}
		f.names[i] = pcp.NameEntry{PMID: uint32(i + 1), Name: en.name}
		f.route[i] = en.r
	}
	f.nodes = make([]string, 0, len(nodeSet))
	for nd := range nodeSet {
		f.nodes = append(f.nodes, nd)
	}
	sort.Strings(f.nodes)
	return f, nil
}

// Name returns the federator's name.
func (f *Federator) Name() string { return f.name }

// Nodes returns the sorted leaf node names under this federator.
func (f *Federator) Nodes() []string { return append([]string(nil), f.nodes...) }

// Names returns the federator's merged, qualified namespace.
func (f *Federator) Names() ([]pcp.NameEntry, error) {
	return append([]pcp.NameEntry(nil), f.names...), nil
}

// EdgeStats returns each edge's counters, in child order.
func (f *Federator) EdgeStats() []EdgeStats {
	out := make([]EdgeStats, len(f.ups))
	for i, u := range f.ups {
		out[i] = EdgeStats{Edge: u.Name(), Stats: u.Stats()}
	}
	return out
}

// Fetch scatter-gathers the requested PMIDs across the owning children.
//
// Partial-result semantics: the returned FetchResult ALWAYS carries one
// value per requested PMID, in request order. A value owned by an
// unreachable subtree has Status pcp.StatusNodeDown, and the
// accompanying error is a *pcp.PartialError naming every missing leaf
// node (sorted, deduplicated). Only when no child answers at all does
// Fetch fail outright, with an error wrapping pmproxy.ErrUpstreamDown —
// which is exactly what lets a parent federator treat this whole
// subtree as one failed edge.
//
// The merged timestamp is the maximum across answering children; with
// the shared clock held still past the sampling interval every child
// answers at the same virtual time and the maximum is that time.
func (f *Federator) Fetch(pmids []uint32) (pcp.FetchResult, error) {
	results, err := f.FetchBatch([][]uint32{pmids})
	if err != nil {
		var pe *pcp.PartialError
		if errors.As(err, &pe) {
			return results[0], err
		}
		return pcp.FetchResult{}, err
	}
	return results[0], nil
}

// FetchBatch scatter-gathers multiple PMID sets at once: the PMIDs of
// every set are routed together, so each owning child is asked with ONE
// edge round trip covering the entire batch — the federation win of the
// batch PDU. A whole multi-set snapshot costs the same number of edge
// round trips as a single fetch. Fetch is the one-set special case.
//
// Partial-result semantics are Fetch's, lifted to the batch: every set
// carries one value per requested PMID, unreachable subtrees contribute
// StatusNodeDown values, and one *pcp.PartialError names the union of
// missing leaf nodes across the batch. All sets share the merged
// (maximum) timestamp of the single scatter.
func (f *Federator) FetchBatch(sets [][]uint32) ([]pcp.FetchResult, error) {
	// One child's share of the scatter: its PMIDs in request order, its
	// answer, and a cursor that counts the share while routing and walks
	// the answer while gathering.
	type edgeCall struct {
		pmids []uint32
		res   pcp.FetchResult
		err   error
		down  bool
		next  int
	}
	// Routing is counted, then cut: pass one counts every child's share,
	// pass two fills the children's PMID lists from one exact-size array.
	calls := make([]edgeCall, len(f.children))
	results := make([]pcp.FetchResult, len(sets))
	routed := 0
	for si, pmids := range sets {
		results[si].Values = make([]pcp.FetchValue, len(pmids))
		for slot, id := range pmids {
			if !f.owns(id) {
				results[si].Values[slot] = pcp.FetchValue{PMID: id, Status: pcp.StatusNoSuchPMID}
				continue
			}
			calls[f.route[id-1].child].next++
			routed++
		}
	}
	if routed == 0 {
		return results, nil
	}
	ids := make([]uint32, routed)
	for i := range calls {
		n := calls[i].next
		calls[i].pmids, ids, calls[i].next = ids[:0:n], ids[n:], 0
	}
	for _, pmids := range sets {
		for _, id := range pmids {
			if f.owns(id) {
				r := f.route[id-1]
				calls[r.child].pmids = append(calls[r.child].pmids, r.childPMID)
			}
		}
	}

	// Scatter: the last routed edge runs on this goroutine.
	var wg sync.WaitGroup
	last := -1
	for i := range calls {
		if len(calls[i].pmids) == 0 {
			continue
		}
		if last >= 0 {
			wg.Add(1)
			go func(c *edgeCall, u *pmproxy.Upstream) {
				defer wg.Done()
				c.res, c.err = u.Fetch(c.pmids)
			}(&calls[last], f.ups[last])
		}
		last = i
	}
	calls[last].res, calls[last].err = f.ups[last].Fetch(calls[last].pmids)
	wg.Wait()

	var ts int64
	var missing []string // nil unless a node is missing
	var cause string
	answered := false
	var lastErr error
	for i := range calls {
		c := &calls[i]
		if len(c.pmids) == 0 {
			continue
		}
		var partial *pcp.PartialError
		if c.err != nil {
			var pe *pcp.PartialError // scoped here so that only an erring edge allocates it
			c.down = !errors.As(c.err, &pe)
			partial = pe
		}
		if !c.down && len(c.res.Values) != len(c.pmids) {
			// A short answer is a protocol violation; treat the edge as down
			// rather than serve misaligned values.
			c.down = true
			c.err = fmt.Errorf("cluster: %s: %d values for %d pmids", f.ups[i].Name(), len(c.res.Values), len(c.pmids))
		}
		if c.down {
			missing = append(missing, f.children[i].Nodes...)
			if cause == "" {
				cause = fmt.Sprintf("%s: %v", f.children[i].Name, c.err)
			}
			lastErr = c.err
			continue
		}
		answered = true
		if c.res.Timestamp > ts {
			ts = c.res.Timestamp
		}
		if partial != nil {
			missing = append(missing, partial.Missing...)
			if cause == "" {
				cause = partial.Cause
			}
		}
	}
	if !answered && len(missing) > 0 {
		return nil, fmt.Errorf("cluster: %s: every child failed: %w (%v)", f.name, pmproxy.ErrUpstreamDown, lastErr)
	}

	// Gather: the sets in routing order meet each child's answers in order.
	for si, pmids := range sets {
		out := results[si].Values
		for slot, id := range pmids {
			if !f.owns(id) {
				continue
			}
			c := &calls[f.route[id-1].child]
			if c.down {
				out[slot] = pcp.FetchValue{PMID: id, Status: pcp.StatusNodeDown}
				continue
			}
			out[slot] = c.res.Values[c.next]
			out[slot].PMID = id // rewrite to this federator's PMID space
			c.next++
		}
		results[si].Timestamp = ts
	}
	if len(missing) == 0 {
		return results, nil
	}
	slices.Sort(missing)
	return results, &pcp.PartialError{Missing: slices.Compact(missing), Cause: cause}
}

// owns reports whether id is one of the federator's PMIDs.
func (f *Federator) owns(id uint32) bool { return id != 0 && int(id) <= len(f.route) }

// FetchAll fetches the federator's entire namespace in PMID order, in
// process: one Fetch of every PMID it routes.
func (f *Federator) FetchAll() (pcp.FetchResult, error) {
	ids := make([]uint32, len(f.route))
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	return f.Fetch(ids)
}
