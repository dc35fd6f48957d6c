package slotlog

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/consensus"
	"repro/internal/lease"
)

// Op enumerates the commands the replicated store understands.
type Op string

// Store operations.
const (
	OpPut    Op = "put"
	OpDelete Op = "delete"
	OpNoop   Op = "noop"
	// OpBatch groups several commands decided in one consensus instance;
	// Subs carries them, applied in order.
	OpBatch Op = "batch"
	// OpLeaseGrant replicates a leader-lease grant (see internal/lease):
	// Key holds the holder's process ID in decimal, Val the grant length
	// in nanoseconds.
	OpLeaseGrant Op = "lease"
)

// opCodes is each Op's byte in an encoded command: its index. 0 is no Op.
var opCodes = [...]Op{1: OpPut, 2: OpDelete, 3: OpNoop, 4: OpBatch, 5: OpLeaseGrant}

// maxBatchDepth bounds how deep OpBatch commands nest in a decoded command
// (the batcher wrapping a submitted OpBatch makes two levels): a hostile
// payload must not choose the decoder's recursion depth.
const maxBatchDepth = 8

var errBatchDepth = errors.New("batches nested too deep")

// Grant is the command that grants cfg.Self a lease of cfg.Duration.
func Grant(cfg lease.Config) Command {
	return Command{Op: OpLeaseGrant, Key: strconv.Itoa(cfg.Self), Val: strconv.FormatInt(cfg.Duration, 10)}
}

// Command is one state-machine command.
type Command struct {
	// ID uniquely identifies the command (proxy id + sequence).
	ID string
	// Op is the operation.
	Op Op
	// Key and Val are the operands (Val unused for delete/noop/batch).
	Key string
	Val string
	// Subs are the batched commands when Op is OpBatch.
	Subs []Command
}

// FNV-1a parameters, inlined so hashing a command ID allocates nothing
// (hash/fnv.New64a escapes to the heap). Must match hash/fnv bit for bit:
// the key orders commands across replicas of mixed builds.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// appendCommand appends c in its binary form (consensus/wire.go): the op
// byte, then ID, Key and Val, then the number of Subs and each of them the
// same way. ok is false if c or one of its Subs has an Op with no byte.
func appendCommand(dst []byte, c Command) (_ []byte, ok bool) {
	code := len(opCodes) - 1
	for code > 0 && opCodes[code] != c.Op {
		code--
	}
	dst = append(dst, byte(code))
	dst = consensus.AppendStr(dst, c.ID)
	dst = consensus.AppendStr(dst, c.Key)
	dst = consensus.AppendStr(dst, c.Val)
	dst = consensus.AppendUvarint(dst, uint64(len(c.Subs)))
	ok = code != 0
	for _, sub := range c.Subs {
		var subOK bool
		dst, subOK = appendCommand(dst, sub)
		ok = ok && subOK
	}
	return dst, ok
}

// decodeCommand reads what appendCommand wrote; depth is how many batches
// enclose it.
func decodeCommand(d *consensus.Decoder, depth int) Command {
	code := d.Byte()
	if code == 0 || int(code) >= len(opCodes) {
		d.Fail(consensus.ErrNotCanonical)
		return Command{}
	}
	c := Command{Op: opCodes[code], ID: d.Str(), Key: d.Str(), Val: d.Str()}
	// An encoded command is at least its op byte and four length prefixes.
	if n := d.Count(5); n > 0 {
		if depth == maxBatchDepth {
			d.Fail(errBatchDepth)
			return Command{}
		}
		c.Subs = make([]Command, n)
		for i := range c.Subs {
			c.Subs[i] = decodeCommand(d, depth+1)
		}
	}
	return c
}

// Encode packs the command into a consensus value: the ordering key is a
// hash of the command ID (ties broken by the serialized payload, keeping
// the order total), the payload is the binary encoding. The payload is built
// in a pooled scratch buffer; the only per-call allocation is the payload
// string itself. The only error is an Op that is none of the constants above.
func (c Command) Encode() (consensus.Value, error) {
	bp := consensus.Scratch()
	b, ok := appendCommand(*bp, c)
	var h uint64 = fnvOffset64
	for i := 0; i < len(c.ID); i++ {
		h ^= uint64(c.ID[i])
		h *= fnvPrime64
	}
	// Clear the top bit so the key stays well above consensus.None.
	key := int64(h >> 1)
	v := consensus.Value{Key: key, Data: string(b)}
	consensus.Release(bp, b)
	if !ok {
		return consensus.Value{}, fmt.Errorf("smr: encode command %q: unknown op", c.ID)
	}
	return v, nil
}

// DecodeCommand unpacks a consensus value produced by Encode.
func DecodeCommand(v consensus.Value) (Command, error) {
	d := consensus.NewDecoder([]byte(v.Data))
	c := decodeCommand(&d, 0)
	if err := d.Finish(); err != nil {
		return Command{}, fmt.Errorf("smr: decode command: %w", err)
	}
	return c, nil
}

// Equal compares commands structurally (Subs included).
func (c Command) Equal(o Command) bool {
	if c.ID != o.ID || c.Op != o.Op || c.Key != o.Key || c.Val != o.Val || len(c.Subs) != len(o.Subs) {
		return false
	}
	for i := range c.Subs {
		if !c.Subs[i].Equal(o.Subs[i]) {
			return false
		}
	}
	return true
}

// proposerOf extracts the proposing replica from a command ID ("p3-17",
// "p3-batch-4" → 3). Unknown shapes (sub-commands, external IDs) map to -1:
// the lease table treats them as foreign, which revokes conservatively and
// never fences. A forged "pN-" prefix cannot break safety — refusal and
// fencing key on the *proposing replica's own* guard state, not on the ID;
// proposer identity only decides whether a command renews or revokes.
func proposerOf(id string) int {
	i := strings.IndexByte(id, '-')
	if i < 2 || id[0] != 'p' {
		return -1
	}
	n, err := strconv.Atoi(id[1:i])
	if err != nil || n < 0 {
		return -1
	}
	return n
}
