package analyzers

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// CodecSym cross-checks hand-written encode/decode pairs: the decoder must
// read the same fields, the same number of times, as the encoder writes.
// Wire drift between the two sides of a codec is the single most likely
// silent bug when a format grows a field, because each side round-trips
// cleanly against itself.
//
// A field is a call to one of two vocabularies. Fixed-width: a
// binary.<Endian>.PutUintN/AppendUintN call writes a uintN and a
// binary.<Endian>.UintN call reads one, and the byte order must agree too.
// Length-prefixed (internal/consensus/wire.go): a call to any function or
// method named Append<X> writes an X; a call to one named Decode<X>, or to
// the consensus.Decoder method that reads an X, reads one. X is whatever
// the codec is built from — Uvarint, Varint, Value, Ballot, but equally
// State, Command or Body, so a codec that nests another is held to calling
// its two halves equally often. Str and Bytes are one wire form, and Count
// reads what AppendUvarint wrote.
//
// Pairing is by name: two functions are compared when their names agree
// after stripping a codec verb prefix (Encode/Decode, Parse, Read/Write,
// Save/Load, Marshal/Unmarshal, Append, Restore), methods only with methods
// of the same receiver — (*TwoB).AppendBody with (*TwoB).DecodeBody. The
// comparison counts calls per field kind — not offsets, not order — so an
// encoder that fills the checksum field out of order (wal.EncodeRecord)
// still matches its in-order decoder.
var CodecSym = &Analyzer{
	Name: "codecsym",
	Doc: "decode must read the same fields — fixed-width and length-prefixed — " +
		"as often, and in the same byte order, as encode writes",
	Run: runCodecSym,
}

// codecEndpoint is one side of a codec: how often one function writes or
// reads each kind of field ("uint32", "Varint", "State", ...).
type codecEndpoint struct {
	decl    *ast.FuncDecl
	encoder bool
	writes  map[string]int
	reads   map[string]int
	endians map[string]bool
}

func runCodecSym(pass *Pass) error {
	byKey := map[string][]*codecEndpoint{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ep := collectCodecCalls(pass, fd)
			switch {
			case len(ep.writes) > 0 && len(ep.reads) > 0:
				continue // round-trip helper: both sides in one body
			case len(ep.writes) > 0 || fd.Name.Name == "AppendBody":
				ep.encoder = true
			case len(ep.reads) == 0 && fd.Name.Name != "DecodeBody":
				// Moves no field. The two methods of consensus.Message are
				// a codec whatever they call: a DecodeBody reading nothing
				// is the dropped field at its worst.
				continue
			}
			key := codecPairKey(fd)
			byKey[key] = append(byKey[key], ep)
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var enc, dec *codecEndpoint
		ambiguous := false
		for _, ep := range byKey[k] {
			if ep.encoder {
				if enc != nil {
					ambiguous = true
				}
				enc = ep
			} else {
				if dec != nil {
					ambiguous = true
				}
				dec = ep
			}
		}
		if ambiguous || enc == nil || dec == nil {
			continue // unpaired or ambiguous names: nothing to cross-check
		}
		comparePair(pass, enc, dec)
	}
	return nil
}

// comparePair reports per-field count mismatches and byte-order disagreement
// between an encoder and its decoder.
func comparePair(pass *Pass, enc, dec *codecEndpoint) {
	encName, decName := enc.decl.Name.Name, dec.decl.Name.Name
	fields := map[string]bool{}
	for f := range enc.writes {
		fields[f] = true
	}
	for f := range dec.reads {
		fields[f] = true
	}
	for _, f := range sortedKeys(fields) {
		if w, r := enc.writes[f], dec.reads[f]; w != r {
			pass.Reportf(dec.decl.Pos(),
				"codec pair %s/%s: encoder writes %d %s field(s) but decoder reads %d — the wire formats have drifted",
				encName, decName, w, f, r)
		}
	}
	for e := range enc.endians {
		if !dec.endians[e] && len(dec.endians) > 0 {
			pass.Reportf(dec.decl.Pos(),
				"codec pair %s/%s: encoder uses binary.%s but decoder does not",
				encName, decName, e)
		}
	}
}

// codecVerbs are the name prefixes stripped to pair an encoder with its
// decoder (encodeFoo/decodeFoo, writeFrame/readFrame, Save/read, ...).
var codecVerbs = []string{
	"encode", "decode", "parse", "unmarshal", "marshal",
	"write", "read", "save", "load", "append", "restore", "put", "get",
}

// codecPairKey normalizes a function to its pairing key: its lowercased name
// with one leading codec verb removed, behind its receiver type if it has one.
func codecPairKey(fd *ast.FuncDecl) string {
	n := strings.ToLower(fd.Name.Name)
	for _, v := range codecVerbs {
		if strings.HasPrefix(n, v) {
			n = strings.TrimPrefix(n, v)
			break
		}
	}
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		n = strings.ToLower(receiverTypeName(fd)) + "." + n
	}
	return n
}

// decoderReads maps each consensus.Decoder method that consumes a field to
// the field kind the matching Append helper writes.
var decoderReads = map[string]string{
	"Uvarint": "Uvarint", "Count": "Uvarint", "Varint": "Varint", "Ballot": "Ballot",
	"Str": "Bytes", "Bytes": "Bytes", "Bool": "Bool", "Value": "Value",
}

// collectCodecCalls tallies fd's field writes and reads in both vocabularies.
func collectCodecCalls(pass *Pass, fd *ast.FuncDecl) *codecEndpoint {
	ep := &codecEndpoint{
		decl:    fd,
		writes:  map[string]int{},
		reads:   map[string]int{},
		endians: map[string]bool{},
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
			if endian, ok := binaryEndian(pass, fun.X); ok {
				switch {
				case strings.HasPrefix(name, "PutUint"):
					ep.writes["uint"+strings.TrimPrefix(name, "PutUint")]++
					ep.endians[endian] = true
				case strings.HasPrefix(name, "AppendUint"):
					ep.writes["uint"+strings.TrimPrefix(name, "AppendUint")]++
					ep.endians[endian] = true
				case strings.HasPrefix(name, "Uint"):
					ep.reads["uint"+strings.TrimPrefix(name, "Uint")]++
					ep.endians[endian] = true
				}
				return true
			}
			if field, ok := decoderReads[name]; ok && isWireDecoder(typeOf(pass, fun.X)) {
				ep.reads[field]++
				return true
			}
		}
		lower := strings.ToLower(name)
		switch {
		case strings.HasPrefix(lower, "append") && len(name) > len("append"):
			ep.writes[wireField(name[len("append"):])]++
		case strings.HasPrefix(lower, "decode") && len(name) > len("decode"):
			ep.reads[wireField(name[len("decode"):])]++
		}
		return true
	})
	return ep
}

// wireField names the field kind an Append<X>/Decode<X> helper moves.
func wireField(x string) string {
	if x == "Str" {
		return "Bytes"
	}
	return x
}

// isWireDecoder reports whether t is (a pointer to) a type named Decoder —
// consensus.Decoder, or a fixture's stand-in for it.
func isWireDecoder(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Decoder"
}

// binaryEndian reports whether e is encoding/binary's LittleEndian or
// BigEndian byte-order value, and which.
func binaryEndian(pass *Pass, e ast.Expr) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if sel.Sel.Name != "LittleEndian" && sel.Sel.Name != "BigEndian" {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok || pkg.Imported().Path() != "encoding/binary" {
		return "", false
	}
	return sel.Sel.Name, true
}

// receiverTypeName renders fd's receiver type for pairing keys.
func receiverTypeName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return "receiver"
}

// sortedKeys returns m's keys in sorted order (map iteration would make
// diagnostic order nondeterministic — the suite practices what it preaches).
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
