package fluid

import (
	"cmp"
	"slices"
)

// component is one connected component of the flow/resource bipartite
// graph: the flows and resources one progressive fill covers. Both lists
// are kept in ascending registration index, the order a from-scratch
// partition yields and the order fill must see to reproduce it bit for bit.
// Removals elsewhere in the network shift indices but never reorder them,
// so the lists stay sorted without upkeep.
type component struct {
	flows []*Flow
	res   []*Resource
	slot  int  // position in Network.comps
	dirty bool // queued in Network.dirty for a refill
	split bool // lost a flow since its last fill, so may have fallen apart
}

func (f *Flow) idx() int     { return f.index }
func (r *Resource) idx() int { return r.index }

// indexed is what a component lists: flows and resources.
type indexed interface{ idx() int }

func byIndex[T indexed](e T, i int) int { return cmp.Compare(e.idx(), i) }

// insertByIndex inserts x into s, which ascends by index. New flows and
// resources carry the highest index, so the search from the back is O(1)
// in the common case.
func insertByIndex[T indexed](s []T, x T) []T {
	i := len(s)
	for i > 0 && s[i-1].idx() > x.idx() {
		i--
	}
	return slices.Insert(s, i, x)
}

// removeByIndex deletes x from s, which ascends by index.
func removeByIndex[T indexed](s []T, x T) []T {
	if i, ok := slices.BinarySearchFunc(s, x.idx(), byIndex[T]); ok {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// mergeByIndex merges b into a, both ascending by index, working from the
// back so a's spare capacity is reused.
func mergeByIndex[T indexed](a, b []T) []T {
	i, j := len(a)-1, len(b)-1
	a = append(a, b...)
	for k := len(a) - 1; j >= 0; k-- {
		if i >= 0 && a[i].idx() > b[j].idx() {
			a[k] = a[i]
			i--
		} else {
			a[k] = b[j]
			j--
		}
	}
	return a
}

func (n *Network) newComp() *component {
	var c *component
	if k := len(n.free); k > 0 {
		c = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		c = new(component)
	}
	c.slot = len(n.comps)
	n.comps = append(n.comps, c)
	return c
}

// dropComp retires c. If c is still queued, its cleared dirty flag makes
// refill skip the stale entry.
func (n *Network) dropComp(c *component) {
	last := n.comps[len(n.comps)-1]
	n.comps[c.slot], last.slot = last, c.slot
	n.comps[len(n.comps)-1] = nil
	n.comps = n.comps[:len(n.comps)-1]
	clear(c.flows)
	clear(c.res)
	c.flows, c.res = c.flows[:0], c.res[:0]
	c.dirty, c.split = false, false
	n.free = append(n.free, c)
}

func (n *Network) markDirty(c *component) {
	if !c.dirty {
		c.dirty = true
		n.dirty = append(n.dirty, c)
	}
}

// link records that registered flow f gained a Usage of r. The user count
// is kept unconditionally, because RemoveResource's in-use check reads it;
// the component upkeep runs only while the partition is live. f and r end
// in one component, which is queued for a refill.
func (n *Network) link(f *Flow, r *Resource) {
	r.users++
	if !n.live {
		return
	}
	switch fc, rc := f.comp, r.comp; {
	case fc == nil && rc == nil:
		c := n.newComp()
		c.flows = append(c.flows, f)
		c.res = append(c.res, r)
		f.comp, r.comp = c, c
	case fc == nil:
		rc.flows = insertByIndex(rc.flows, f)
		f.comp = rc
	case rc == nil:
		fc.res = insertByIndex(fc.res, r)
		r.comp = fc
	case fc != rc:
		n.merge(fc, rc)
	}
	n.markDirty(f.comp)
}

// merge unions two components into the larger one.
func (n *Network) merge(a, b *component) {
	if len(a.flows)+len(a.res) < len(b.flows)+len(b.res) {
		a, b = b, a
	}
	for _, f := range b.flows {
		f.comp = a
	}
	for _, r := range b.res {
		r.comp = a
	}
	a.flows = mergeByIndex(a.flows, b.flows)
	a.res = mergeByIndex(a.res, b.res)
	a.split = a.split || b.split
	n.dropComp(b)
}

// unlink retires the usages of f, which is leaving the network. A resource
// left without users leaves its component with load 0. The component loses
// f and is queued for a refill and a split check; if f was its last flow it
// is retired.
func (n *Network) unlink(f *Flow) {
	for _, u := range f.Uses {
		r := u.Resource
		r.users--
		if n.live && r.users == 0 && r.comp != nil {
			r.comp.res = removeByIndex(r.comp.res, r)
			r.comp = nil
			r.load = 0
		}
	}
	c := f.comp
	f.comp = nil
	if !n.live || c == nil {
		return
	}
	c.flows = removeByIndex(c.flows, f)
	if len(c.flows) == 0 {
		n.dropComp(c)
		return
	}
	c.split = true
	n.markDirty(c)
}

// split re-checks c's connectivity after a departure, in O(component):
// union-find over c's resource positions, joined through each flow's uses.
// If c fell apart, the group holding c's first flow stays in c and every
// other group moves to a new queued component. Both passes walk c's lists
// in order, so every list stays ascending.
func (n *Network) split(c *component) {
	c.split = false
	uf := n.uf[:0]
	for i, r := range c.res {
		r.pos = int32(i)
		uf = append(uf, int32(i))
	}
	n.uf = uf
	find := func(i int32) int32 {
		for uf[i] != i {
			uf[i] = uf[uf[i]] // path halving
			i = uf[i]
		}
		return i
	}
	for _, f := range c.flows {
		a := find(f.Uses[0].Resource.pos)
		for _, u := range f.Uses[1:] {
			if b := find(u.Resource.pos); b != a {
				uf[b] = a
			}
		}
	}
	root := find(0)
	whole := true
	for i := range uf {
		if find(int32(i)) != root {
			whole = false
			break
		}
	}
	if whole {
		return
	}

	group := slices.Grow(n.group[:0], len(uf))[:len(uf)]
	clear(group)
	group[find(c.flows[0].Uses[0].Resource.pos)] = c
	w := 0
	for _, f := range c.flows {
		rt := find(f.Uses[0].Resource.pos)
		g := group[rt]
		if g == nil {
			g = n.newComp()
			group[rt] = g
			n.markDirty(g)
		}
		if g == c {
			c.flows[w] = f
			w++
		} else {
			g.flows = append(g.flows, f)
			f.comp = g
		}
	}
	clear(c.flows[w:])
	c.flows = c.flows[:w]
	w = 0
	for i, r := range c.res {
		if g := group[find(int32(i))]; g == c {
			c.res[w] = r
			w++
		} else {
			g.res = append(g.res, r)
			r.comp = g
		}
	}
	clear(c.res[w:])
	c.res = c.res[:w]
	clear(group)
	n.group = group[:0]
}

// rebuild discards the partition and derives it, and every resource's user
// count, afresh from the registered flows' Uses.
func (n *Network) rebuild() {
	for len(n.comps) > 0 {
		n.dropComp(n.comps[len(n.comps)-1])
	}
	n.dirty = n.dirty[:0]
	for _, r := range n.resources {
		r.users, r.comp, r.load = 0, nil, 0
	}
	for _, f := range n.flows {
		f.comp = nil
	}
	n.live = true
	for _, f := range n.flows {
		for _, u := range f.Uses {
			n.link(f, u.Resource)
		}
	}
}
