package ir

// DomTree holds the result of a dominance computation over a function's
// CFG. It serves two masters: mem2reg needs dominance frontiers for φ
// placement, and the secure type system needs immediate post-dominators to
// bound the region colored by a conditional jump (paper Rule 4: the blocks
// of the "if" and "then" branches are colored, the joining point is not).
type DomTree struct {
	blocks []*Block
	index  map[*Block]int
	idom   []int // immediate dominator by index; -1 for root/unreachable
	// children of each node in the dominator tree.
	children [][]int
	frontier [][]int
	post     bool
}

// Dominators computes the dominator tree of f (entry-rooted).
// f.ComputeCFG must have been called.
func Dominators(f *Function) *DomTree {
	return computeDom(f, false)
}

// PostDominators computes the post-dominator tree of f over the reverse
// CFG, using a virtual exit node that all Ret blocks lead to.
func PostDominators(f *Function) *DomTree {
	return computeDom(f, true)
}

// computeDom implements the Cooper–Harvey–Kennedy iterative algorithm on a
// reverse-postorder numbering.
func computeDom(f *Function, post bool) *DomTree {
	t := &DomTree{post: post, index: make(map[*Block]int, len(f.Blocks))}

	// Roots: entry block forward; all exit blocks backward (we add a
	// virtual root at index 0 handling multiple exits).
	preds := func(b *Block) []*Block { return b.preds }
	succs := func(b *Block) []*Block { return b.succs }
	if post {
		preds, succs = succs, preds
	}

	var roots []*Block
	if post {
		for _, b := range f.Blocks {
			if len(b.succs) == 0 {
				roots = append(roots, b)
			}
		}
	} else if len(f.Blocks) > 0 {
		roots = []*Block{f.Blocks[0]}
	}

	// Reverse postorder from the roots over the (possibly reversed) CFG.
	visited := map[*Block]bool{}
	var order []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		if visited[b] {
			return
		}
		visited[b] = true
		for _, s := range succs(b) {
			dfs(s)
		}
		order = append(order, b)
	}
	for _, r := range roots {
		dfs(r)
	}
	// order is postorder; reverse it. Index 0 is the virtual root.
	t.blocks = make([]*Block, 1, len(order)+1)
	for i := len(order) - 1; i >= 0; i-- {
		t.blocks = append(t.blocks, order[i])
	}
	for i, b := range t.blocks {
		if i == 0 {
			continue
		}
		t.index[b] = i
	}

	n := len(t.blocks)
	t.idom = make([]int, n)
	for i := range t.idom {
		t.idom[i] = -1
	}
	t.idom[0] = 0
	rootSet := map[*Block]bool{}
	for _, r := range roots {
		rootSet[r] = true
		t.idom[t.index[r]] = 0
	}

	intersect := func(a, b int) int {
		for a != b {
			for a > b {
				a = t.idom[a]
			}
			for b > a {
				b = t.idom[b]
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		for i := 1; i < n; i++ {
			b := t.blocks[i]
			if rootSet[b] {
				continue
			}
			newIdom := -1
			for _, p := range preds(b) {
				pi, ok := t.index[p]
				if !ok || t.idom[pi] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = pi
				} else {
					newIdom = intersect(newIdom, pi)
				}
			}
			if newIdom != -1 && t.idom[i] != newIdom {
				t.idom[i] = newIdom
				changed = true
			}
		}
	}

	t.children = make([][]int, n)
	for i := 1; i < n; i++ {
		if t.idom[i] >= 0 && t.idom[i] != i {
			t.children[t.idom[i]] = append(t.children[t.idom[i]], i)
		}
	}
	return t
}

// Children returns the blocks immediately dominated by b in the tree.
func (t *DomTree) Children(b *Block) []*Block {
	i, ok := t.index[b]
	if !ok {
		return nil
	}
	out := make([]*Block, 0, len(t.children[i]))
	for _, ci := range t.children[i] {
		out = append(out, t.blocks[ci])
	}
	return out
}

// Idom returns the immediate (post-)dominator of b, or nil when b is a root
// of the tree (dominated only by the virtual root) or unreachable.
func (t *DomTree) Idom(b *Block) *Block {
	i, ok := t.index[b]
	if !ok {
		return nil
	}
	d := t.idom[i]
	if d <= 0 {
		return nil
	}
	return t.blocks[d]
}

// Dominates reports whether a (post-)dominates b (reflexive).
func (t *DomTree) Dominates(a, b *Block) bool {
	ai, aok := t.index[a]
	bi, bok := t.index[b]
	if !aok || !bok {
		return false
	}
	for bi > ai {
		nb := t.idom[bi]
		if nb == bi {
			return false
		}
		bi = nb
	}
	return bi == ai
}

// Frontier returns the dominance frontier of b (computed lazily for the
// whole tree on first call).
func (t *DomTree) Frontier(b *Block) []*Block {
	if t.frontier == nil {
		t.computeFrontiers()
	}
	i, ok := t.index[b]
	if !ok {
		return nil
	}
	out := make([]*Block, 0, len(t.frontier[i]))
	for _, fi := range t.frontier[i] {
		out = append(out, t.blocks[fi])
	}
	return out
}

// computeFrontiers uses the Cooper–Harvey–Kennedy frontier algorithm.
func (t *DomTree) computeFrontiers() {
	n := len(t.blocks)
	t.frontier = make([][]int, n)
	for i := 1; i < n; i++ {
		b := t.blocks[i]
		preds := b.preds
		if t.post {
			preds = b.succs
		}
		if len(preds) < 2 {
			continue
		}
		for _, p := range preds {
			runner, ok := t.index[p]
			if !ok {
				continue
			}
			for runner != t.idom[i] && runner != 0 {
				if !containsInt(t.frontier[runner], i) {
					t.frontier[runner] = append(t.frontier[runner], i)
				}
				next := t.idom[runner]
				if next == runner {
					break
				}
				runner = next
			}
		}
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
