package audit

import (
	"encoding/hex"
	"fmt"
)

// ProofStep is one interior level of an inclusion proof: the node's
// position within its group of up to eight, and the other group
// members' hashes in order (the node's own hash is what the verifier
// computes).
type ProofStep struct {
	Pos      int
	Siblings []string
}

// Proof is a self-contained inclusion proof for one audit record: the
// record's leaf group (its own line plus up to seven neighbours —
// level 0 hashes whole groups, so the proof carries the record's
// immediate context for free), the interior sibling hashes up to the
// batch's Merkle root, and the header fields that link that root into
// the root chain. VerifyProof checks it without any access to the
// log: 1 + len(Path) + 1 hashes total — O(log n) in the batch size —
// against the root and the chain link. Trusting the proof then
// reduces to trusting Chain, which the verifier compares against a
// published anchor (Stats().LastChain) or a chain walk.
type Proof struct {
	// Seq is the proven record's sequence number.
	Seq uint64
	// Segment/Batch locate the record's batch (Batch is the
	// root-chain position).
	Segment string
	Batch   int
	// First/Last/Count/CatMask echo the batch header.
	First   uint64
	Last    uint64
	Count   int
	CatMask Category
	// LeafIndex is the record's position within the batch;
	// GroupPos its position within Group.
	LeafIndex int
	GroupPos  int
	// Group holds the record's level-0 leaf group: the encoded lines
	// of up to eight consecutive records, the proven one included.
	Group []string
	// Path lists the interior levels from the group's hash up to the
	// root.
	Path []ProofStep
	// Root is the batch's Merkle root (hex); Chain its chain link and
	// PrevChain the preceding batch's (hex; all-zero for batch 0).
	Root      string
	Chain     string
	PrevChain string
}

// Record decodes the proven record from the proof's leaf group.
func (p *Proof) Record() (Record, error) {
	if p.GroupPos < 0 || p.GroupPos >= len(p.Group) {
		return Record{}, fmt.Errorf("audit: proof group position %d outside group of %d", p.GroupPos, len(p.Group))
	}
	return parseRecordLine([]byte(p.Group[p.GroupPos]))
}

// Hashes reports how many hash computations VerifyProof performs for
// this proof: one leaf-group hash, one per interior level, and the
// chain link — O(log n) in the batch size.
func (p *Proof) Hashes() int { return 2 + len(p.Path) }

// Prove returns an inclusion proof for the record with the given
// sequence number. It forces a drain first so freshly emitted records
// are provable. Records dropped on ring overflow (sequence gaps) have
// no Merkle batch and cannot be proven. A segment that does not parse
// is an error, not a gap to skip.
func (l *Log) Prove(seq uint64) (Proof, error) {
	l.drainMu.Lock()
	defer l.drainMu.Unlock()
	l.drainLocked(true)
	names, err := l.listSegments()
	if err != nil {
		return Proof{}, err
	}
	// Walk batches in chain order tracking the previous link, so the
	// proof can carry PrevChain.
	var prevChain [32]byte
	for _, name := range names {
		data, err := l.store.Read(name)
		if err != nil {
			return Proof{}, err
		}
		idx := l.segIdx[name]
		if idx == nil || !idx.spans(len(data)) {
			if idx, err = buildSegIndex(data); err != nil {
				return Proof{}, fmt.Errorf("%s: %w", name, err)
			}
			l.segIdx[name] = idx
		}
		for bi := range idx.batches {
			m := &idx.batches[bi]
			if seq >= m.first && seq <= m.last {
				return buildProof(name, data, m, prevChain, seq)
			}
			prevChain = m.chain
		}
	}
	return Proof{}, fmt.Errorf("audit: seq %d is not in any Merkle batch (never persisted or dropped on overflow)", seq)
}

// buildProof reconstructs the batch's tree and extracts the proof for
// seq, which falls in the batch's header range.
func buildProof(segment string, data []byte, m *batchMeta, prevChain [32]byte, seq uint64) (Proof, error) {
	// Slice the leaf lines back out of the segment. The slice grows
	// with the lines actually present: the header's count is not
	// trusted to size it.
	var lines [][]byte
	leafIdx := -1
	off := m.dataOff
	for off < m.end {
		line, next := nextLine(data, off)
		off = next
		if len(line) == 0 {
			continue
		}
		s, err := seqOfLine(line)
		if err != nil {
			return Proof{}, fmt.Errorf("audit: %s batch %d: %w", segment, m.idx, err)
		}
		if s == seq {
			leafIdx = len(lines)
		}
		lines = append(lines, line)
	}
	if leafIdx < 0 {
		// In the header's range but absent: the seq was dropped on
		// ring overflow before the batch committed.
		return Proof{}, fmt.Errorf("audit: seq %d fell in batch %d's range [%d,%d] but was dropped before commit", seq, m.idx, m.first, m.last)
	}
	// Level 0: group hashes.
	level0 := make([][32]byte, 0, (len(lines)+merkleFanOut-1)/merkleFanOut)
	var buf []byte
	var h [32]byte
	for g := 0; g < len(lines); g += merkleFanOut {
		e := min(g+merkleFanOut, len(lines))
		h, buf = leafGroupHash(buf, lines[g:e])
		level0 = append(level0, h)
	}
	levels := merkleLevels(level0)
	root := levels[len(levels)-1][0]
	if root != m.root {
		return Proof{}, fmt.Errorf("audit: %s batch %d root mismatch — segment tampered, refusing to prove", segment, m.idx)
	}

	p := Proof{
		Seq:       seq,
		Segment:   segment,
		Batch:     m.idx,
		First:     m.first,
		Last:      m.last,
		Count:     m.count,
		CatMask:   m.mask,
		LeafIndex: leafIdx,
		Root:      hex.EncodeToString(m.root[:]),
		Chain:     hex.EncodeToString(m.chain[:]),
		PrevChain: hex.EncodeToString(prevChain[:]),
	}
	// The leaf group: the record's own line and its neighbours.
	gStart := leafIdx - leafIdx%merkleFanOut
	gEnd := min(gStart+merkleFanOut, len(lines))
	p.GroupPos = leafIdx - gStart
	for _, line := range lines[gStart:gEnd] {
		p.Group = append(p.Group, string(line))
	}
	// Interior levels: siblings of the node on the path to the root.
	// A lone trailing node is promoted unhashed, so it contributes no
	// step.
	node := leafIdx / merkleFanOut
	for k := 0; k < len(levels)-1; k++ {
		level := levels[k]
		g := node - node%merkleFanOut
		e := min(g+merkleFanOut, len(level))
		if e-g > 1 {
			step := ProofStep{Pos: node - g}
			for i := g; i < e; i++ {
				if i == node {
					continue
				}
				step.Siblings = append(step.Siblings, hex.EncodeToString(level[i][:]))
			}
			p.Path = append(p.Path, step)
		}
		node /= merkleFanOut
	}
	return p, nil
}

// VerifyProof checks an inclusion proof standalone: it recomputes the
// leaf-group hash, folds the interior siblings to the root, and
// re-links the root into the chain — 1 + len(Path) + 1 hashes, O(log n)
// in the batch size, touching none of the log's segments. The caller
// completes the trust chain by comparing p.Chain against an anchored
// chain value (Stats().LastChain at the time, or a fresh VerifyWith
// walk). Returns nil if the proof is sound.
func VerifyProof(p Proof) error {
	if len(p.Group) == 0 || len(p.Group) > merkleFanOut {
		return fmt.Errorf("audit: proof leaf group has %d lines, want 1..%d", len(p.Group), merkleFanOut)
	}
	if p.GroupPos < 0 || p.GroupPos >= len(p.Group) {
		return fmt.Errorf("audit: proof group position %d outside group of %d", p.GroupPos, len(p.Group))
	}
	// The record itself must decode and match the proof's claims.
	rec, err := p.Record()
	if err != nil {
		return fmt.Errorf("audit: proof record does not parse: %w", err)
	}
	if rec.Seq != p.Seq {
		return fmt.Errorf("audit: proof claims seq %d but its record says %d", p.Seq, rec.Seq)
	}
	if p.Seq < p.First || p.Seq > p.Last {
		return fmt.Errorf("audit: seq %d outside the batch range [%d,%d]", p.Seq, p.First, p.Last)
	}
	if rec.Cat&p.CatMask != rec.Cat {
		return fmt.Errorf("audit: record category %s not within the batch mask %s", rec.Cat, p.CatMask)
	}
	// Leaf group hash.
	lines := make([][]byte, len(p.Group))
	for i, s := range p.Group {
		lines[i] = []byte(s)
	}
	h, buf := leafGroupHash(nil, lines)
	// Fold the interior levels.
	for _, step := range p.Path {
		if len(step.Siblings) == 0 || len(step.Siblings) >= merkleFanOut {
			return fmt.Errorf("audit: proof step has %d siblings, want 1..%d", len(step.Siblings), merkleFanOut-1)
		}
		if step.Pos < 0 || step.Pos > len(step.Siblings) {
			return fmt.Errorf("audit: proof step position %d outside group of %d", step.Pos, len(step.Siblings)+1)
		}
		children := make([][32]byte, 0, len(step.Siblings)+1)
		si := 0
		for i := 0; i <= len(step.Siblings); i++ {
			if i == step.Pos {
				children = append(children, h)
				continue
			}
			var sib [32]byte
			if err := hexDecode32(&sib, []byte(step.Siblings[si])); err != nil {
				return fmt.Errorf("audit: bad sibling hash: %w", err)
			}
			children = append(children, sib)
			si++
		}
		h, buf = interiorHash(buf, children)
	}
	if got := hex.EncodeToString(h[:]); got != p.Root {
		return fmt.Errorf("audit: proof does not fold to the claimed root (leaf or siblings forged)")
	}
	// Re-link the root into the chain.
	var root, prev, chain [32]byte
	if err := hexDecode32(&root, []byte(p.Root)); err != nil {
		return fmt.Errorf("audit: bad root: %w", err)
	}
	if err := hexDecode32(&prev, []byte(p.PrevChain)); err != nil {
		return fmt.Errorf("audit: bad prev chain: %w", err)
	}
	if err := hexDecode32(&chain, []byte(p.Chain)); err != nil {
		return fmt.Errorf("audit: bad chain: %w", err)
	}
	base := appendHeaderBase(buf[:0], p.Batch, p.Count, p.First, p.Last, p.CatMask, root)
	link, _ := chainLink(nil, prev, base)
	if link != chain {
		return fmt.Errorf("audit: proof header does not link into the root chain (header fields forged)")
	}
	return nil
}
