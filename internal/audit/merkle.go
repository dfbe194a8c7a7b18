package audit

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
)

// Segment format — Merkle batch commits. It is the only format the
// log writes or reads.
//
// A segment is a sequence of text lines:
//
//	!v2
//	#<batch>\t<count>\t<first>\t<last>\t<mask>\t<root>\t<chain>
//	<leaf line> × count
//	#...                     (next batch header)
//	...
//
// The first line of every segment is the version marker "!v2", and it
// is required: a segment without it — an empty one included — does not
// parse, so Verify reports it as a fault and Query, Prove and resume
// refuse it. Every batch header's count is at least 1.
//
// A leaf line is a record body exactly as appendBody renders it — the
// 8 tab-separated fields, with NO per-record hash field. Integrity
// comes from the batch header instead: <root> is the hex Merkle root
// over the batch's leaf lines, and <chain> is the hex running hash
// linking this header to every header before it:
//
//	chain = SHA-256(0x02 ‖ prevChain ‖ headerBase)
//
// where headerBase is the header line up to and including the root
// field. The chain therefore covers the batch index, count, sequence
// range, category mask and root — tampering with any header field, or
// reordering/removing whole batches, breaks the chain at that header,
// while tampering with a leaf breaks only its batch's root (the fault
// stays localized; later batches still verify).
//
// The tree groups leaves in eights, and interior nodes likewise:
//
//	level 0: node = SHA-256(0x00 ‖ (uvarint(len) ‖ line) × ≤8 leaves)
//	level k: node = SHA-256(0x01 ‖ child hash × ≤8)
//	a level's lone trailing node is promoted unhashed
//
// Hashing eight leaf lines per SHA-256 call amortizes the per-call
// overhead that hashing each record alone would pay, and the
// arity-8 fan-out keeps proofs shallow: a 256-record batch is 32 leaf
// groups and two interior levels, so VerifyProof folds 1 group hash +
// 2 interior hashes — O(log n) — against the root.

// merkleFanOut is the tree arity: leaf lines are hashed in groups of
// eight, and interior levels group eight child hashes per node.
const merkleFanOut = 8

// Domain-separation prefixes for the three hash shapes.
const (
	leafPrefix     = 0x00 // leaf-group hash over length-prefixed lines
	interiorPrefix = 0x01 // interior node over child hashes
	chainPrefix    = 0x02 // root-chain link over prevChain ++ headerBase
)

// segVersionLine is the first line of every segment.
const segVersionLine = "!v2\n"

// leafGroupHash hashes one group of up to merkleFanOut leaf lines
// (record bodies, no trailing newline) into a level-0 node. Each line
// is length-prefixed so line boundaries are unambiguous. buf is reused
// across groups.
func leafGroupHash(buf []byte, lines [][]byte) ([32]byte, []byte) {
	buf = append(buf[:0], leafPrefix)
	for _, ln := range lines {
		buf = binary.AppendUvarint(buf, uint64(len(ln)))
		buf = append(buf, ln...)
	}
	return sha256.Sum256(buf), buf
}

// interiorHash hashes up to merkleFanOut child hashes into their
// parent. A group of one is promoted by the caller instead.
func interiorHash(buf []byte, children [][32]byte) ([32]byte, []byte) {
	buf = append(buf[:0], interiorPrefix)
	for i := range children {
		buf = append(buf, children[i][:]...)
	}
	return sha256.Sum256(buf), buf
}

// merkleRoot folds level-0 group hashes to the root. The fold is in
// place (nodes is clobbered: slot i/8 is written only after slots
// i..i+7 are hashed) so the commit path allocates nothing per batch;
// buf is the reused hash-input scratch. Lone trailing nodes are
// promoted unhashed.
func merkleRoot(nodes [][32]byte, buf []byte) ([32]byte, []byte) {
	var h [32]byte
	for len(nodes) > 1 {
		w := 0
		for i := 0; i < len(nodes); i += merkleFanOut {
			j := min(i+merkleFanOut, len(nodes))
			if j-i == 1 {
				nodes[w] = nodes[i]
			} else {
				h, buf = interiorHash(buf, nodes[i:j])
				nodes[w] = h
			}
			w++
		}
		nodes = nodes[:w]
	}
	return nodes[0], buf
}

// merkleLevels builds the full tree bottom-up from the level-0 group
// hashes. levels[0] is the input; the last level has exactly one node,
// the root. Used by Prove, which needs every level for sibling
// extraction; the commit path uses merkleRoot instead.
func merkleLevels(level0 [][32]byte) [][][32]byte {
	levels := [][][32]byte{level0}
	var buf []byte
	var h [32]byte
	for len(levels[len(levels)-1]) > 1 {
		cur := levels[len(levels)-1]
		var next [][32]byte
		for i := 0; i < len(cur); i += merkleFanOut {
			j := min(i+merkleFanOut, len(cur))
			if j-i == 1 {
				next = append(next, cur[i])
				continue
			}
			h, buf = interiorHash(buf, cur[i:j])
			next = append(next, h)
		}
		levels = append(levels, next)
	}
	return levels
}

// chainLink computes the root-chain value for a batch header:
// SHA-256(0x02 ‖ prev ‖ headerBase), where headerBase is the header
// line through the root field.
func chainLink(buf []byte, prev [32]byte, headerBase []byte) ([32]byte, []byte) {
	buf = append(buf[:0], chainPrefix)
	buf = append(buf, prev[:]...)
	buf = append(buf, headerBase...)
	return sha256.Sum256(buf), buf
}

// batchMeta is one batch's entry in the per-segment index: enough to
// skip the batch during filtered queries (seq range + category mask),
// slice its leaf lines out of the segment without a scan (byte
// offsets), and re-link it (root + chain).
type batchMeta struct {
	idx     int    // root-chain position (global batch index)
	hdrOff  int    // byte offset of the '#' header line in the segment
	dataOff int    // byte offset of the first leaf line
	end     int    // byte offset past the last leaf line's newline
	hdrLine int    // 1-based line number of the header in the segment
	count   int    // leaf records in the batch
	first   uint64 // first record's Seq
	last    uint64 // last record's Seq
	mask    Category
	root    [32]byte
	chain   [32]byte
}

// appendHeaderBase renders the header line through the root field —
// the exact bytes the chain link covers.
func appendHeaderBase(dst []byte, idx, count int, first, last uint64, mask Category, root [32]byte) []byte {
	dst = append(dst, '#')
	dst = strconv.AppendInt(dst, int64(idx), 10)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, int64(count), 10)
	dst = append(dst, '\t')
	dst = strconv.AppendUint(dst, first, 10)
	dst = append(dst, '\t')
	dst = strconv.AppendUint(dst, last, 10)
	dst = append(dst, '\t')
	dst = strconv.AppendUint(dst, uint64(mask), 16)
	dst = append(dst, '\t')
	dst = appendHex(dst, root)
	return dst
}

// appendHex appends the lowercase hex of a hash.
func appendHex(dst []byte, h [32]byte) []byte {
	var hexed [64]byte
	hex.Encode(hexed[:], h[:])
	return append(dst, hexed[:]...)
}

// parseBatchHeader decodes a "#..." header line (without trailing
// newline) into a batchMeta (offsets are left to the caller).
func parseBatchHeader(line []byte) (batchMeta, error) {
	var m batchMeta
	if len(line) == 0 || line[0] != '#' {
		return m, fmt.Errorf("audit: not a batch header")
	}
	fields := bytes.Split(line[1:], []byte{'\t'})
	if len(fields) != 7 {
		return m, fmt.Errorf("audit: malformed batch header: %d fields, want 7", len(fields))
	}
	var err error
	if m.idx, err = atoiBytes(fields[0]); err != nil {
		return m, fmt.Errorf("audit: bad batch index: %w", err)
	}
	if m.count, err = atoiBytes(fields[1]); err != nil {
		return m, fmt.Errorf("audit: bad batch count: %w", err)
	}
	if m.count < 1 {
		return m, fmt.Errorf("audit: bad batch count %d, want at least 1", m.count)
	}
	if m.first, err = strconv.ParseUint(string(fields[2]), 10, 64); err != nil {
		return m, fmt.Errorf("audit: bad batch first seq: %w", err)
	}
	if m.last, err = strconv.ParseUint(string(fields[3]), 10, 64); err != nil {
		return m, fmt.Errorf("audit: bad batch last seq: %w", err)
	}
	mask, err := strconv.ParseUint(string(fields[4]), 16, 32)
	if err != nil {
		return m, fmt.Errorf("audit: bad batch mask: %w", err)
	}
	m.mask = Category(mask)
	if err := hexDecode32(&m.root, fields[5]); err != nil {
		return m, fmt.Errorf("audit: bad batch root: %w", err)
	}
	if err := hexDecode32(&m.chain, fields[6]); err != nil {
		return m, fmt.Errorf("audit: bad batch chain: %w", err)
	}
	return m, nil
}

// atoiBytes is strconv.Atoi without the string conversion.
func atoiBytes(b []byte) (int, error) {
	n, err := strconv.ParseInt(string(b), 10, 64)
	return int(n), err
}

// hexDecode32 decodes a 64-char hex field into a hash.
func hexDecode32(dst *[32]byte, src []byte) error {
	if len(src) != 64 {
		return fmt.Errorf("hash field is %d chars, want 64", len(src))
	}
	_, err := hex.Decode(dst[:], src)
	return err
}

// chainFrom recomputes the header's chain link from the previous
// chain value. Runs once per batch, not per record, so it keeps its
// own scratch.
func (m *batchMeta) chainFrom(prev [32]byte) [32]byte {
	base := appendHeaderBase(make([]byte, 0, 160), m.idx, m.count, m.first, m.last, m.mask, m.root)
	link, _ := chainLink(make([]byte, 0, 33+len(base)), prev, base)
	return link
}

// nextLine returns the line starting at off (without its newline) and
// the offset just past it. The final line may be newline-terminated or
// not; callers stop when off >= len(data).
func nextLine(data []byte, off int) (line []byte, next int) {
	if i := bytes.IndexByte(data[off:], '\n'); i >= 0 {
		return data[off : off+i], off + i + 1
	}
	return data[off:], len(data)
}
