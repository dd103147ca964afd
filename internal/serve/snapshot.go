package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/online"
	"repro/internal/wire"
)

// SnapshotVersion is the service snapshot format version; it also salts
// the combined fingerprint's topology line.
const SnapshotVersion = 1

// Snapshot is the versioned serialization of the whole service: the
// topology triple (n, shards, alg), the service seed, the router cursor
// (how many requests have been admitted — the next request's split
// depends on it), and one online.Snapshot per cell. Fingerprint is the
// combined service fingerprint; Restore re-derives it from the restored
// cells and refuses a snapshot that does not verify.
type Snapshot struct {
	Version int    `json:"version"`
	N       int    `json:"n"`
	Shards  int    `json:"shards"`
	Alg     string `json:"alg"`
	Seed    uint64 `json:"seed"`
	NextReq uint64 `json:"next_req"`
	// TakenUnix records when the snapshot was captured (Unix seconds).
	// It is provenance, not state: the fingerprint does not cover it, and
	// a pre-PR6 snapshot without it restores fine (age then reads 0).
	TakenUnix   int64              `json:"taken_unix,omitempty"`
	Cells       []*online.Snapshot `json:"cells"`
	Fingerprint string             `json:"fingerprint"`
}

// Snapshot captures the service state. Take it quiescent (no in-flight
// calls) for a consistent cut; restoring it then continues the stream
// exactly — same future placements, same fingerprints — as a service
// that never stopped.
func (s *Service) Snapshot() *Snapshot {
	s.mu.Lock()
	nextReq := s.nextReq
	s.mu.Unlock()
	s.topo.RLock()
	defer s.topo.RUnlock()
	snap := &Snapshot{
		Version:   SnapshotVersion,
		N:         s.cfg.N,
		Shards:    len(s.cells),
		Alg:       s.cfg.Alg,
		Seed:      s.cfg.Seed,
		NextReq:   nextReq,
		TakenUnix: time.Now().Unix(),
		Cells:     make([]*online.Snapshot, len(s.cells)),
	}
	// The combined fingerprint is derived from the captured cell
	// snapshots, not the live cells: even if traffic mutates a cell
	// between captures, the document stays internally consistent and
	// restorable (it is then simply a per-cell-consistent cut).
	//
	// Cells capture in parallel: each capture walks and hashes that cell's
	// placement table, independent O(live) work, so a many-cell snapshot
	// costs the largest cell rather than the sum.
	if len(s.cells) <= 1 {
		for i, c := range s.cells {
			snap.Cells[i] = c.alloc.Snapshot()
		}
	} else {
		var wg sync.WaitGroup
		for i, c := range s.cells {
			wg.Add(1)
			go func(i int, c *cell) {
				defer wg.Done()
				snap.Cells[i] = c.alloc.Snapshot()
			}(i, c)
		}
		wg.Wait()
	}
	fps := make([]string, len(s.cells))
	for i := range snap.Cells {
		fps[i] = snap.Cells[i].Fingerprint
	}
	snap.Fingerprint = combinedFingerprint(snap.N, snap.Shards, snap.Alg, fps)
	return snap
}

// Restore reconstructs a service from a snapshot. The snapshot fixes the
// topology and seed; cfg supplies only Workers, and its N/Shards/Alg/Seed
// fields, when non-zero, must agree with the snapshot, so a service
// restarted with conflicting flags fails loudly. Every cell's state is
// verified against its stored fingerprint, and the reassembled service's
// combined fingerprint must match Snapshot.Fingerprint.
func Restore(snap *Snapshot, cfg Config) (*Service, error) {
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("serve: snapshot version %d, this build reads %d", snap.Version, SnapshotVersion)
	}
	if cfg.N != 0 && cfg.N != snap.N {
		return nil, fmt.Errorf("serve: snapshot has n=%d but config asks n=%d", snap.N, cfg.N)
	}
	if cfg.Shards != 0 && cfg.Shards != snap.Shards {
		return nil, fmt.Errorf("serve: snapshot has %d shards but config asks %d (a snapshot cannot be re-sharded)", snap.Shards, cfg.Shards)
	}
	if cfg.Seed != 0 && cfg.Seed != snap.Seed {
		return nil, fmt.Errorf("serve: snapshot has seed=%d but config asks seed=%d", snap.Seed, cfg.Seed)
	}
	canon, err := online.ResolveAlg(snap.Alg)
	if err != nil {
		return nil, err
	}
	if cfg.Alg != "" {
		askCanon, err := online.ResolveAlg(cfg.Alg)
		if err != nil {
			return nil, err
		}
		if askCanon != canon {
			return nil, fmt.Errorf("serve: snapshot ran %s but config asks %s", canon, askCanon)
		}
	}
	if snap.Shards < 1 || snap.Shards > snap.N {
		return nil, fmt.Errorf("serve: snapshot topology invalid: %d shards over %d bins", snap.Shards, snap.N)
	}
	if len(snap.Cells) != snap.Shards {
		return nil, fmt.Errorf("serve: snapshot declares %d shards but carries %d cells", snap.Shards, len(snap.Cells))
	}
	restored := Config{N: snap.N, Shards: snap.Shards, Alg: canon, Seed: snap.Seed, Workers: cfg.Workers}
	svc, err := build(restored, func(s *Service, g int) (*online.Allocator, error) {
		return s.restoreCell(g, snap.Cells[g])
	})
	if err != nil {
		return nil, err
	}
	svc.nextReq = snap.NextReq
	svc.restored = true
	svc.snapTime = snap.TakenUnix
	if got := svc.Fingerprint(); got != snap.Fingerprint {
		svc.Close()
		return nil, fmt.Errorf("serve: snapshot fingerprint mismatch: stored %s, state hashes to %s", snap.Fingerprint, got)
	}
	return svc, nil
}

// snapshotMagic heads the binary snapshot file format; no JSON document
// can start with these bytes, so LoadSnapshot sniffs the format from them.
var snapshotMagic = []byte("PBAB")

// snapshotBinaryVersion is the binary *file* format version (the per-cell
// state documents carry their own snapshotVersion inside).
const snapshotBinaryVersion = 1

// EncodeSnapshotBinary serializes a service snapshot in the binary file
// format:
//
//	"PBAB" | u32 version | u32 len | header JSON (Snapshot, cells omitted)
//	| u32 ncells | ncells x (u32 len | columnar cell document)
//
// (u32 little-endian throughout; cell documents as in wire.AppendSnapshot.)
// The service-level header stays JSON — it is O(1) and greppable — while
// the O(live) per-cell state uses the columnar encoding, ~4x smaller than
// the JSON form and encoded in parallel across cells.
func EncodeSnapshotBinary(snap *Snapshot) ([]byte, error) {
	header := *snap
	header.Cells = nil
	hdr, err := json.Marshal(&header)
	if err != nil {
		return nil, err
	}
	docs := make([][]byte, len(snap.Cells))
	var wg sync.WaitGroup
	for i, cs := range snap.Cells {
		wg.Add(1)
		go func(i int, cs *online.Snapshot) {
			defer wg.Done()
			docs[i] = wire.AppendSnapshot(nil, cs)
		}(i, cs)
	}
	wg.Wait()
	size := len(snapshotMagic) + 12 + len(hdr)
	for _, doc := range docs {
		size += 4 + len(doc)
	}
	out := make([]byte, 0, size)
	out = append(out, snapshotMagic...)
	out = binary.LittleEndian.AppendUint32(out, snapshotBinaryVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(hdr)))
	out = append(out, hdr...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(docs)))
	for _, doc := range docs {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(doc)))
		out = append(out, doc...)
	}
	return out, nil
}

// DecodeSnapshotBinary parses the binary snapshot file format. The
// length-prefixed cell documents split without parsing, so the O(live)
// decodes run in parallel.
func DecodeSnapshotBinary(data []byte) (*Snapshot, error) {
	rest, ok := bytes.CutPrefix(data, snapshotMagic)
	if !ok {
		return nil, fmt.Errorf("serve: binary snapshot magic missing")
	}
	if len(rest) < 8 {
		return nil, fmt.Errorf("serve: binary snapshot header truncated")
	}
	if v := binary.LittleEndian.Uint32(rest); v != snapshotBinaryVersion {
		return nil, fmt.Errorf("serve: binary snapshot format version %d, this build reads %d", v, snapshotBinaryVersion)
	}
	hdrLen := int(binary.LittleEndian.Uint32(rest[4:]))
	rest = rest[8:]
	if hdrLen < 0 || hdrLen > len(rest) {
		return nil, fmt.Errorf("serve: binary snapshot header truncated")
	}
	var snap Snapshot
	if err := json.Unmarshal(rest[:hdrLen], &snap); err != nil {
		return nil, fmt.Errorf("serve: decoding snapshot header: %w", err)
	}
	rest = rest[hdrLen:]
	if len(rest) < 4 {
		return nil, fmt.Errorf("serve: binary snapshot cell count truncated")
	}
	ncells := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if ncells < 0 || ncells > len(rest) {
		return nil, fmt.Errorf("serve: binary snapshot declares %d cells in %d bytes", ncells, len(rest))
	}
	docs := make([][]byte, ncells)
	for i := range docs {
		if len(rest) < 4 {
			return nil, fmt.Errorf("serve: binary snapshot cell %d length truncated", i)
		}
		docLen := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if docLen < 0 || docLen > len(rest) {
			return nil, fmt.Errorf("serve: binary snapshot cell %d document truncated", i)
		}
		docs[i] = rest[:docLen]
		rest = rest[docLen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("serve: binary snapshot has %d trailing bytes", len(rest))
	}
	snap.Cells = make([]*online.Snapshot, ncells)
	errs := make([]error, ncells)
	var wg sync.WaitGroup
	for i, doc := range docs {
		wg.Add(1)
		go func(i int, doc []byte) {
			defer wg.Done()
			snap.Cells[i], errs[i] = wire.ParseSnapshot(doc)
		}(i, doc)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("serve: decoding snapshot cell %d: %w", i, err)
		}
	}
	return &snap, nil
}

// LoadSnapshot reads and decodes a snapshot file, sniffing the format:
// the "PBAB" magic selects the binary format, anything else parses as the
// JSON document. Both forms restore identically.
func LoadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(data, snapshotMagic) {
		return DecodeSnapshotBinary(data)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("serve: decoding snapshot %s: %w", path, err)
	}
	return &snap, nil
}

// SaveSnapshotProto atomically writes the service snapshot in the given
// format: "json" (readable, diffable) or "binary" (the "PBAB" columnar
// format, ~4x smaller and encoded in parallel). LoadSnapshot reads either.
// It writes to a temporary file and renames it, so a crash mid-write never
// truncates a good snapshot.
func (s *Service) SaveSnapshotProto(path, proto string) error {
	var data []byte
	var err error
	switch proto {
	case "", "json":
		data, err = json.MarshalIndent(s.Snapshot(), "", " ")
		data = append(data, '\n')
	case "binary":
		data, err = EncodeSnapshotBinary(s.Snapshot())
	default:
		return fmt.Errorf("serve: snapshot proto must be json or binary, got %q", proto)
	}
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
