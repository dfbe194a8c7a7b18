// Package audit implements the VM-wide audit subsystem: a
// tamper-evident, low-overhead event pipeline for security decisions
// and process lifecycle.
//
// The paper's premise is many mutually-suspicious users sharing one
// virtual machine; the kernel therefore needs a record of who did what
// — every access-control decision, thread and application lifecycle
// transition, filesystem denial, network operation and shell command —
// that survives after the fact and whose integrity can be checked.
//
// The subsystem is split into an emission side and a consumption side:
//
//   - Emission (Log.Emit) is built to sit on the kernel's hottest
//     paths. When an event's category is disabled the cost is a single
//     atomic load; when enabled, the event is stamped (sequence,
//     time) and pushed into one of several bounded ring buffers
//     sharded by emitting thread ID. On overflow the ring drops its
//     oldest record and bumps a per-category drop counter — emitters
//     never block on the audit subsystem.
//
//   - Consumption is one drainer per VM (a daemon thread spawned by
//     the platform) that batches records out of the shards, commits
//     each batch to a log segment under a Merkle root linked into a
//     running chain of batch headers (any in-place edit breaks its
//     batch's root or the chain at that header — see merkle.go and
//     Verify), and fans out to live subscribers through per-subscriber
//     bounded queues.
//
// The package sits below every other kernel substrate: it imports
// nothing from the repository, and persists through the narrow
// SegmentStore interface (the vfs package provides the in-VFS
// implementation used by the platform).
package audit

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// Category classifies audit events. Categories form a bitmask so that
// the emission fast path can test "is this event wanted" with a single
// atomic load and AND.
type Category uint32

// Event categories.
const (
	// CatAccess records *allowed* access-control decisions. It is the
	// highest-volume category by far (every CheckPermission on the
	// fast path) and is therefore disabled by default.
	CatAccess Category = 1 << iota
	// CatDeny records denied access-control decisions.
	CatDeny
	// CatThread records VM thread and thread-group lifecycle: spawn,
	// exit, group destruction, VM exit.
	CatThread
	// CatApp records application launch and destruction.
	CatApp
	// CatFile records filesystem (OS-layer) permission denials:
	// open, remove, rename.
	CatFile
	// CatNet records network operations: listen, connect, and their
	// failures.
	CatNet
	// CatShell records shell command execution.
	CatShell
	// CatObject records security-relevant shared-object-space
	// activity: typed transactional commits and aborts, unbinds of
	// typed entries, and type-confusion detections.
	CatObject
	// CatRemote records remote-playground activity: workers joining
	// and leaving the pool, session placement and close, and
	// rescheduling after a worker failure.
	CatRemote

	numCategories = iota
)

// CatAll selects every category.
const CatAll Category = 1<<numCategories - 1

// DefaultMask is the category mask a new Log starts with: everything
// except CatAccess, whose per-allowed-check volume would tax the
// access-control fast path for little forensic value.
const DefaultMask = CatAll &^ CatAccess

// catNames maps a category's bit index to its auditctl-facing name.
var catNames = [numCategories]string{
	"access", "deny", "thread", "app", "file", "net", "shell", "object",
	"remote",
}

// index returns the bit index of a single-category value.
func (c Category) index() int { return bits.TrailingZeros32(uint32(c)) }

// String renders a mask as a comma-separated list of category names.
func (c Category) String() string {
	if c == 0 {
		return "none"
	}
	var parts []string
	for i := 0; i < numCategories; i++ {
		if c&(1<<i) != 0 {
			parts = append(parts, catNames[i])
		}
	}
	if rest := c &^ CatAll; rest != 0 {
		parts = append(parts, fmt.Sprintf("unknown(0x%x)", uint32(rest)))
	}
	return strings.Join(parts, ",")
}

// ParseCategory resolves a category name ("deny", "shell", ...) or
// "all" to its mask.
func ParseCategory(name string) (Category, error) {
	if name == "all" {
		return CatAll, nil
	}
	for i, n := range catNames {
		if n == name {
			return 1 << i, nil
		}
	}
	return 0, fmt.Errorf("audit: unknown category %q (want one of %s, or all)",
		name, strings.Join(catNames[:], ", "))
}

// CategoryNames returns every category name in bit order.
func CategoryNames() []string {
	out := make([]string, numCategories)
	copy(out, catNames[:])
	return out
}

// Event is what instrumented code emits: the category, a short verb
// ("deny", "spawn", "exec", ...), and the identity of the actor as far
// as the emitting layer knows it. Layers below the application
// abstraction leave User/App zero; the record still carries the
// emitting thread for correlation.
type Event struct {
	// Cat is the event's (single) category.
	Cat Category
	// Verb names the action, e.g. "deny", "spawn", "exec".
	Verb string
	// User is the running user, if the emitting layer knows it.
	User string
	// App is the application ID, or 0 for system/kernel events.
	App int64
	// Thread is the emitting thread's ID (also the shard selector).
	Thread int64
	// Detail carries the event payload: the denied permission, the
	// command line, the path, the address...
	Detail string
}

// Record is an Event as it lands in the log: stamped with a global
// sequence number and emission time. Integrity is not per record: the
// drainer commits records in Merkle batches (see merkle.go).
type Record struct {
	Event
	// Seq is the global emission sequence number (1-based, strictly
	// increasing; gaps witness ring overflow drops).
	Seq uint64
	// Time is the emission time in Unix nanoseconds.
	Time int64
}

// appendBody renders a record as one segment leaf line — tab-separated
// fields, no trailing newline — appended to dst. It is the reference
// encoding: the drainer's bodyEncoder must produce identical bytes.
// Strings are quoted, so they can never contain a raw tab or newline.
func (r *Record) appendBody(dst []byte) []byte {
	dst = strconv.AppendUint(dst, r.Seq, 10)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, r.Time, 10)
	dst = append(dst, '\t')
	dst = append(dst, catNames[r.Cat.index()]...)
	dst = append(dst, '\t')
	dst = strconv.AppendQuote(dst, r.Verb)
	dst = append(dst, '\t')
	dst = strconv.AppendQuote(dst, r.User)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, r.App, 10)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, r.Thread, 10)
	dst = append(dst, '\t')
	dst = strconv.AppendQuote(dst, r.Detail)
	return dst
}

// appendQuote appends s Go-quoted, byte-identical to
// strconv.AppendQuote but with a fast path for plain printable ASCII
// (the overwhelmingly common audit-string shape): one scan, no
// per-rune work. Anything needing an escape falls back to strconv.
func appendQuote(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return strconv.AppendQuote(dst, s)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// fieldMemo caches one field's quoted encoding. Audit streams repeat
// the same verb, user and — under a denial storm — detail over and
// over; the memo turns re-quoting into an equality check plus a copy.
type fieldMemo struct {
	s   string
	enc []byte
}

func (m *fieldMemo) append(dst []byte, s string) []byte {
	if s == m.s && m.enc != nil {
		return append(dst, m.enc...)
	}
	start := len(dst)
	dst = appendQuote(dst, s)
	m.s = s
	m.enc = append(m.enc[:0], dst[start:]...)
	return dst
}

// bodyEncoder renders record bodies with per-field memoization. One
// encoder belongs to one drainer (it is not safe for concurrent use);
// its output is byte-identical to Record.appendBody.
type bodyEncoder struct {
	verb, user, detail fieldMemo
}

func (e *bodyEncoder) appendBody(dst []byte, r *Record) []byte {
	dst = strconv.AppendUint(dst, r.Seq, 10)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, r.Time, 10)
	dst = append(dst, '\t')
	dst = append(dst, catNames[r.Cat.index()]...)
	dst = append(dst, '\t')
	dst = e.verb.append(dst, r.Verb)
	dst = append(dst, '\t')
	dst = e.user.append(dst, r.User)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, r.App, 10)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, r.Thread, 10)
	dst = append(dst, '\t')
	dst = e.detail.append(dst, r.Detail)
	return dst
}

// recordFields is the number of tab-separated fields of a leaf line.
// There is no per-record hash field: integrity lives in the batch
// header.
const recordFields = 8

// parseCatBytes resolves a category name field without allocating.
func parseCatBytes(b []byte) (Category, error) {
	for i := range catNames {
		if string(b) == catNames[i] {
			return 1 << i, nil
		}
	}
	return 0, fmt.Errorf("audit: unknown category %q", b)
}

// unquoteBytes inverts appendQuote. The fast path handles quoted
// strings with no escapes in one slice; anything else goes through
// strconv.Unquote.
func unquoteBytes(b []byte) (string, error) {
	if len(b) >= 2 && b[0] == '"' && b[len(b)-1] == '"' {
		inner := b[1 : len(b)-1]
		clean := true
		for i := 0; i < len(inner); i++ {
			if inner[i] == '\\' || inner[i] == '"' {
				clean = false
				break
			}
		}
		if clean {
			return string(inner), nil
		}
	}
	return strconv.Unquote(string(b))
}

// parseRecordLine decodes one leaf line without the strings.Split
// allocation per call: fields are sliced in place and only the string
// payloads materialize.
func parseRecordLine(line []byte) (Record, error) {
	var fields [recordFields][]byte
	n := 0
	start := 0
	for i := 0; i <= len(line); i++ {
		if i == len(line) || line[i] == '\t' {
			if n == recordFields {
				return Record{}, fmt.Errorf("audit: malformed record: more than %d fields", recordFields)
			}
			fields[n] = line[start:i]
			n++
			start = i + 1
		}
	}
	if n != recordFields {
		return Record{}, fmt.Errorf("audit: malformed record: %d fields, want %d", n, recordFields)
	}
	var (
		r   Record
		err error
	)
	if r.Seq, err = strconv.ParseUint(string(fields[0]), 10, 64); err != nil {
		return Record{}, fmt.Errorf("audit: bad seq: %w", err)
	}
	if r.Time, err = strconv.ParseInt(string(fields[1]), 10, 64); err != nil {
		return Record{}, fmt.Errorf("audit: bad time: %w", err)
	}
	if r.Cat, err = parseCatBytes(fields[2]); err != nil {
		return Record{}, err
	}
	if r.Verb, err = unquoteBytes(fields[3]); err != nil {
		return Record{}, fmt.Errorf("audit: bad verb: %w", err)
	}
	if r.User, err = unquoteBytes(fields[4]); err != nil {
		return Record{}, fmt.Errorf("audit: bad user: %w", err)
	}
	if r.App, err = strconv.ParseInt(string(fields[5]), 10, 64); err != nil {
		return Record{}, fmt.Errorf("audit: bad app: %w", err)
	}
	if r.Thread, err = strconv.ParseInt(string(fields[6]), 10, 64); err != nil {
		return Record{}, fmt.Errorf("audit: bad thread: %w", err)
	}
	if r.Detail, err = unquoteBytes(fields[7]); err != nil {
		return Record{}, fmt.Errorf("audit: bad detail: %w", err)
	}
	return r, nil
}

// seqOfLine parses just the leading sequence field of a record line.
func seqOfLine(line []byte) (uint64, error) {
	end := 0
	for end < len(line) && line[end] != '\t' {
		end++
	}
	return strconv.ParseUint(string(line[:end]), 10, 64)
}
