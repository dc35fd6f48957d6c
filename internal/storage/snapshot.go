// Package storage writes and reads atomic snapshot files: one opaque blob
// keyed by an index. The replicated store no longer uses it — its snapshots
// are records in its WAL (internal/smr) — and benchmark/'s storage probe
// measures what a file costs to save and load. Writes are
// atomic in the temp-file + rename sense: a crash at any point leaves
// either the previous snapshot or the new one, never a half-written file
// (the blob is additionally CRC32C-framed, so even a corrupted rename
// target is detected and skipped in favour of an older snapshot).
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Snapshot file layout, little-endian:
//
//	offset 0   8 bytes  magic "SNAP0001"
//	offset 8   u64      index the snapshot covers (applied index)
//	offset 16  u32      CRC32C over the data
//	offset 20           data
const (
	snapMagic      = "SNAP0001"
	snapHeaderSize = 20
	snapSuffix     = ".snap"
	snapPrefix     = "snap-"
	tmpSuffix      = ".tmp"
)

// keepSnapshots is how many generations Save retains: the newest plus one
// fallback in case the newest is found corrupt at load time.
const keepSnapshots = 2

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a snapshot file whose frame or checksum is invalid.
var ErrCorrupt = errors.New("storage: corrupt snapshot")

func snapName(index uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, index, snapSuffix)
}

func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	hexPart := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	if len(hexPart) != 16 {
		return 0, false
	}
	index, err := strconv.ParseUint(hexPart, 16, 64)
	if err != nil {
		return 0, false
	}
	return index, true
}

// Save atomically writes a snapshot covering index: the frame goes to a
// temp file, is fsynced, renamed into place, and the directory is fsynced;
// older generations beyond a small fallback window are then removed.
func Save(dir string, index uint64, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	frame := make([]byte, snapHeaderSize+len(data))
	copy(frame, snapMagic)
	binary.LittleEndian.PutUint64(frame[8:16], index)
	binary.LittleEndian.PutUint32(frame[16:20], crc32.Checksum(data, castagnoli))
	copy(frame[snapHeaderSize:], data)

	final := filepath.Join(dir, snapName(index))
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return prune(dir)
}

// Load returns the newest valid snapshot in dir. A corrupt or torn newest
// snapshot is silently skipped in favour of the next generation; ok is
// false when no valid snapshot exists.
func Load(dir string) (index uint64, data []byte, ok bool, err error) {
	names, err := list(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil, false, nil
		}
		return 0, nil, false, err
	}
	// Newest first.
	for i := len(names) - 1; i >= 0; i-- {
		idx, blob, err := read(filepath.Join(dir, names[i]))
		if err != nil {
			continue // corrupt generation: fall back to the previous one
		}
		return idx, blob, true, nil
	}
	return 0, nil, false, nil
}

// read parses and validates one snapshot file.
func read(path string) (uint64, []byte, error) {
	frame, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	if len(frame) < snapHeaderSize || string(frame[:8]) != snapMagic {
		return 0, nil, ErrCorrupt
	}
	index := binary.LittleEndian.Uint64(frame[8:16])
	want := binary.LittleEndian.Uint32(frame[16:20])
	data := frame[snapHeaderSize:]
	if crc32.Checksum(data, castagnoli) != want {
		return 0, nil, ErrCorrupt
	}
	return index, data, nil
}

// list returns the snapshot file names in dir sorted ascending by index
// (name order is index order by construction).
func list(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, ok := parseSnapName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// prune removes snapshot generations beyond the fallback window and any
// stale temp files from interrupted saves.
func prune(dir string) error {
	names, err := list(dir)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	for len(names) > keepSnapshots {
		if err := os.Remove(filepath.Join(dir, names[0])); err != nil {
			return fmt.Errorf("storage: %w", err)
		}
		names = names[1:]
	}
	tmps, err := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+tmpSuffix))
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	for _, tmp := range tmps {
		os.Remove(tmp)
	}
	return nil
}

// syncDir fsyncs a directory, making renames in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
