package index

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"mie/internal/text"
)

// ErrClosed is returned by mutating operations on a closed Segmented index.
var ErrClosed = errors.New("index: closed")

// SegmentedOptions configures a Segmented index.
type SegmentedOptions struct {
	// Index carries the per-segment options. SpillDir, when champion lists
	// are enabled, is treated as a parent directory: every segment spills
	// into its own SpillDir/seg-<id> subdirectory so segment lifecycles
	// (seal, compact, drop) stay independent on disk.
	Index Options
	// MemtableCap auto-seals the memtable once it holds this many documents.
	// Zero means DefaultMemtableCap; negative disables auto-sealing.
	MemtableCap int
	// CompactSegments is the sealed-segment count at which NeedsCompaction
	// reports true. Zero means DefaultCompactSegments.
	CompactSegments int
	// OnSeal, when set, is called (outside the index lock) after every seal —
	// the hook a background compactor uses to learn that work may exist.
	OnSeal func()
}

// Defaults for SegmentedOptions.
const (
	DefaultMemtableCap     = 1024
	DefaultCompactSegments = 4
)

func (o *SegmentedOptions) setDefaults() {
	if o.MemtableCap == 0 {
		o.MemtableCap = DefaultMemtableCap
	}
	if o.CompactSegments <= 0 {
		o.CompactSegments = DefaultCompactSegments
	}
}

// segment is one Inverted index incarnation inside a Segmented facade. Once
// sealed its Inverted is never mutated again; only compaction retires it.
type segment struct {
	id       int
	idx      *Inverted
	spillDir string // this segment's private spill dir ("" without champions)
}

// Segmented is an LSM-flavored composition of Inverted indexes: all writes
// land in a small mutable memtable segment, Seal moves the memtable into an
// immutable sealed-segment list, and Compact merges sealed segments into one
// (dropping postings of removed or superseded documents). Lookup merges
// postings across every segment and scores them exactly as a single Inverted
// over the same live documents would.
//
// Document liveness is tracked by an owner map (doc -> segment id of its
// current version). Remove and re-Add of a document whose postings sit in a
// sealed segment just retarget the owner map — the stale sealed postings
// become tombstoned garbage that Lookup skips and Compact drops.
//
// Segmented is safe for concurrent use. All operations take the facade lock;
// Compact builds its merged segment from immutable inputs without holding it.
type Segmented struct {
	mu     sync.RWMutex
	opts   SegmentedOptions
	nextID int
	mem    *segment
	sealed []*segment // oldest first
	owner  map[DocID]int
	// dead counts tombstoned document versions still occupying sealed
	// segments — the garbage that compaction reclaims.
	dead        int
	totalLen    uint64 // sum of live document lengths (BM25 avgdl)
	compactions uint64
	closed      bool

	// compactMu serializes Compact calls so two compactors never race to
	// retire the same source segments.
	compactMu sync.Mutex
}

// NewSegmented creates an empty Segmented index.
func NewSegmented(opts SegmentedOptions) (*Segmented, error) {
	opts.setDefaults()
	s := &Segmented{
		opts:  opts,
		owner: make(map[DocID]int),
	}
	if err := s.freshMemtableLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// freshMemtableLocked installs a new empty memtable segment.
func (s *Segmented) freshMemtableLocked() error {
	s.nextID++
	id := s.nextID
	opts := s.opts.Index
	dir := ""
	if opts.ChampionSize > 0 {
		dir = filepath.Join(opts.SpillDir, fmt.Sprintf("seg-%d", id))
		opts.SpillDir = dir
	}
	idx, err := New(opts)
	if err != nil {
		return err
	}
	s.mem = &segment{id: id, idx: idx, spillDir: dir}
	return nil
}

// segmentsLocked returns all segments, oldest sealed first, memtable last.
func (s *Segmented) segmentsLocked() []*segment {
	out := make([]*segment, 0, len(s.sealed)+1)
	out = append(out, s.sealed...)
	return append(out, s.mem)
}

func (s *Segmented) segByIDLocked(id int) *segment {
	if s.mem.id == id {
		return s.mem
	}
	for _, seg := range s.sealed {
		if seg.id == id {
			return seg
		}
	}
	return nil
}

// Add indexes (or re-indexes) a document in the memtable. A previous version
// in a sealed segment is tombstoned via the owner map; one in the memtable is
// removed in place. The memtable auto-seals past MemtableCap.
func (s *Segmented) Add(doc DocID, terms map[Term]uint64) error {
	s.mu.Lock()
	err := s.addLocked(doc, terms)
	sealedNow := false
	if err == nil && s.opts.MemtableCap > 0 && s.mem.idx.DocCount() >= s.opts.MemtableCap {
		if serr := s.sealLocked(); serr != nil {
			err = serr
		} else {
			sealedNow = true
		}
	}
	cb := s.opts.OnSeal
	s.mu.Unlock()
	if sealedNow && cb != nil {
		cb()
	}
	return err
}

func (s *Segmented) addLocked(doc DocID, terms map[Term]uint64) error {
	if s.closed {
		return ErrClosed
	}
	if own, ok := s.owner[doc]; ok {
		if seg := s.segByIDLocked(own); seg != nil {
			s.totalLen -= seg.idx.docLenView(doc)
			if seg == s.mem {
				seg.idx.Remove(doc)
			} else {
				s.dead++
			}
		}
		delete(s.owner, doc)
	}
	if err := s.mem.idx.Add(doc, terms); err != nil {
		return err
	}
	s.owner[doc] = s.mem.id
	s.totalLen += s.mem.idx.docLenView(doc)
	return nil
}

// AddBatch is the bulk segment-build primitive: the entire batch lands in the
// current memtable under one lock acquisition (no mid-batch auto-seal), so an
// epoch rebuild can pour a store snapshot into exactly one segment and Seal
// it. On error the batch stops at the offending document; earlier entries
// remain indexed. If the batch pushed the memtable past MemtableCap it is
// sealed once at the end.
func (s *Segmented) AddBatch(docs []BatchDoc) error {
	s.mu.Lock()
	var err error
	for _, d := range docs {
		if err = s.addLocked(d.Doc, d.Terms); err != nil {
			break
		}
	}
	sealedNow := false
	if err == nil && s.opts.MemtableCap > 0 && s.mem.idx.DocCount() >= s.opts.MemtableCap {
		if serr := s.sealLocked(); serr != nil {
			err = serr
		} else {
			sealedNow = true
		}
	}
	cb := s.opts.OnSeal
	s.mu.Unlock()
	if sealedNow && cb != nil {
		cb()
	}
	return err
}

// Remove tombstones a document. Removing an unknown doc is a no-op.
func (s *Segmented) Remove(doc DocID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	own, ok := s.owner[doc]
	if !ok {
		return
	}
	if seg := s.segByIDLocked(own); seg != nil {
		s.totalLen -= seg.idx.docLenView(doc)
		if seg == s.mem {
			seg.idx.Remove(doc)
		} else {
			s.dead++
		}
	}
	delete(s.owner, doc)
}

// Seal freezes the current memtable into the sealed-segment list and starts a
// fresh one. Sealing an empty memtable is a no-op.
func (s *Segmented) Seal() error {
	s.mu.Lock()
	err := s.sealLocked()
	sealedNow := err == nil
	cb := s.opts.OnSeal
	s.mu.Unlock()
	if sealedNow && cb != nil {
		cb()
	}
	return err
}

func (s *Segmented) sealLocked() error {
	if s.closed {
		return ErrClosed
	}
	if s.mem.idx.DocCount() == 0 {
		return nil
	}
	s.sealed = append(s.sealed, s.mem)
	return s.freshMemtableLocked()
}

// Has reports whether doc is live in the index.
func (s *Segmented) Has(doc DocID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.owner[doc]
	return ok
}

// DocCount returns the number of live documents.
func (s *Segmented) DocCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.owner)
}

// SegmentStats is a point-in-time snapshot of segment-level state.
type SegmentStats struct {
	SealedSegments int
	MemtableDocs   int
	LiveDocs       int
	DeadDocs       int // tombstoned versions awaiting compaction
	Compactions    uint64
}

// Stats returns current segment statistics.
func (s *Segmented) Stats() SegmentStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return SegmentStats{
		SealedSegments: len(s.sealed),
		MemtableDocs:   s.mem.idx.DocCount(),
		LiveDocs:       len(s.owner),
		DeadDocs:       s.dead,
		Compactions:    s.compactions,
	}
}

// NeedsCompaction reports whether background compaction would reclaim
// meaningful space or merge enough segments to matter: the sealed-segment
// count reached CompactSegments, or tombstoned garbage outgrew the live set.
func (s *Segmented) NeedsCompaction() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed || len(s.sealed) == 0 {
		return false
	}
	if len(s.sealed) >= s.opts.CompactSegments {
		return true
	}
	return s.dead > 0 && s.dead >= len(s.owner)/2 && s.dead >= 32
}

// Lookup ranks live documents against the query term-frequency map, merging
// postings across the memtable and every sealed segment, and returns the top
// k. Scores match a single Inverted holding the same live documents: document
// frequency counts each live doc once (postings in sealed segments whose doc
// has been removed or re-added elsewhere are skipped via the owner map), and
// BM25 length statistics aggregate across segments.
func (s *Segmented) Lookup(query map[Term]uint64, k int) []Result {
	if k <= 0 {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	docCount := len(s.owner)
	var avgLen float64
	if docCount > 0 {
		avgLen = float64(s.totalLen) / float64(docCount)
	}
	segs := s.segmentsLocked()
	bm25 := s.opts.Index.Ranking == RankBM25
	// With no tombstoned versions left, every indexed document is live in
	// the one segment holding it, and postings need no owner check.
	owner := s.owner
	if s.dead == 0 {
		owner = nil
	}
	// Size the score map once for the most documents the postings can
	// touch: growing it posting by posting costs more than the scoring.
	terms := sortedTerms(query)
	touched := 0
	for _, term := range terms {
		for _, seg := range segs {
			touched += seg.idx.PostingsLen(term)
		}
	}
	scores := make(map[DocID]float64, min(touched, docCount))
	var posts []posting
	for _, term := range terms {
		posts = posts[:0]
		df := 0
		for _, seg := range segs {
			var spilled int
			posts, spilled = seg.idx.appendLivePostings(posts, term, owner, seg.id, bm25)
			df += spilled
		}
		df += len(posts)
		if df == 0 {
			continue
		}
		qf := float64(query[term])
		if bm25 {
			idf := text.BM25IDF(docCount, df)
			for _, p := range posts {
				w := text.BM25Weight(p.tf, idf, p.docLen, avgLen, 0, 0)
				scores[p.doc] += qf * w
			}
			continue
		}
		idf := text.IDF(docCount, df)
		for _, p := range posts {
			w := float64(p.tf) * idf
			scores[p.doc] += qf * w
		}
	}
	return TopK(scores, k)
}

// Search is Lookup under the name the repository layer uses for every index
// type, so Segmented is a drop-in for Inverted in ranked retrieval.
func (s *Segmented) Search(query map[Term]uint64, k int) []Result {
	return s.Lookup(query, k)
}

// Compact merges every sealed segment into a single new immutable segment,
// dropping tombstoned garbage and merging spilled postings back up to the
// champion bound. The merged segment is built from the immutable sources
// without holding the facade lock (a brief read lock snapshots the segment
// list and owner map), so Lookup/Add/Remove proceed concurrently; a short
// write lock swaps it in. Documents that were removed or re-added while the
// merge ran are handled by the owner map: their stale copies in the merged
// segment are skipped at read time and reclaimed by the next compaction.
func (s *Segmented) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	// Phase 1: snapshot sources and ownership, and reserve the merged
	// segment's id, under a brief lock.
	s.mu.Lock()
	if s.closed || len(s.sealed) == 0 {
		s.mu.Unlock()
		return nil
	}
	srcs := append([]*segment(nil), s.sealed...)
	srcIDs := make(map[int]bool, len(srcs))
	for _, seg := range srcs {
		srcIDs[seg.id] = true
	}
	ownedBy := make(map[DocID]int)
	for doc, own := range s.owner {
		if srcIDs[own] {
			ownedBy[doc] = own
		}
	}
	s.nextID++
	mergedID := s.nextID
	s.mu.Unlock()

	// Phase 2: build the merged segment off-lock from immutable sources.
	opts := s.opts.Index
	dir := ""
	if opts.ChampionSize > 0 {
		dir = filepath.Join(opts.SpillDir, fmt.Sprintf("seg-%d", mergedID))
		opts.SpillDir = dir
	}
	idx, err := New(opts)
	if err != nil {
		return err
	}
	merged := &segment{id: mergedID, idx: idx, spillDir: dir}
	discard := func() {
		merged.idx.Close()
		if merged.spillDir != "" {
			os.RemoveAll(merged.spillDir)
		}
	}
	for _, seg := range srcs {
		id := seg.id
		batch, err := seg.idx.liveDocs(func(doc DocID) bool { return ownedBy[doc] == id })
		if err != nil {
			discard()
			return err
		}
		if err := merged.idx.AddBatch(batch); err != nil {
			discard()
			return err
		}
	}

	// Phase 3: swap under the write lock.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		discard()
		return nil
	}
	// Keep sealed segments that appeared after the snapshot (seals during the
	// build); the merged segment replaces the sources as the oldest entry.
	var kept []*segment
	for _, seg := range s.sealed {
		if !srcIDs[seg.id] {
			kept = append(kept, seg)
		}
	}
	s.sealed = append([]*segment{merged}, kept...)
	for doc, own := range s.owner {
		if srcIDs[own] {
			s.owner[doc] = merged.id
		}
	}
	s.recountDeadLocked()
	s.compactions++
	s.mu.Unlock()

	// Phase 4: retire the source segments.
	var firstErr error
	for _, seg := range srcs {
		if err := seg.idx.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if seg.spillDir != "" {
			os.RemoveAll(seg.spillDir)
		}
	}
	return firstErr
}

// recountDeadLocked recomputes the tombstoned-garbage counter from scratch:
// every indexed document version not currently owned is garbage.
func (s *Segmented) recountDeadLocked() {
	liveBySeg := make(map[int]int, len(s.sealed)+1)
	for _, own := range s.owner {
		liveBySeg[own]++
	}
	dead := 0
	for _, seg := range s.segmentsLocked() {
		dead += seg.idx.DocCount() - liveBySeg[seg.id]
	}
	s.dead = dead
}

// SegmentBatches returns the live contents grouped by owning segment, oldest
// sealed segment first and the memtable last (always present, possibly
// empty). Loading the groups back with LoadSegments reproduces an equivalent
// segment layout with all garbage dropped — this is the snapshot
// serialization primitive.
func (s *Segmented) SegmentBatches() ([][]BatchDoc, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	var groups [][]BatchDoc
	for _, seg := range s.segmentsLocked() {
		id := seg.id
		batch, err := seg.idx.liveDocs(func(doc DocID) bool { return s.owner[doc] == id })
		if err != nil {
			return nil, err
		}
		if len(batch) == 0 && seg != s.mem {
			continue // fully-garbage sealed segment: drop it
		}
		groups = append(groups, batch)
	}
	return groups, nil
}

// LoadSegments rebuilds segment state from SegmentBatches output: every group
// but the last becomes a sealed segment, the last is loaded into the
// memtable. The index must be empty.
func (s *Segmented) LoadSegments(groups [][]BatchDoc) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if len(s.owner) != 0 || len(s.sealed) != 0 {
		return errors.New("index: LoadSegments on non-empty index")
	}
	for i, group := range groups {
		for _, d := range group {
			if err := s.addLocked(d.Doc, d.Terms); err != nil {
				return err
			}
		}
		if i < len(groups)-1 {
			if err := s.sealLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close releases every segment's resources. Further mutations fail with
// ErrClosed; an in-flight Compact aborts at its swap point.
func (s *Segmented) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	for _, seg := range s.segmentsLocked() {
		if err := seg.idx.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// --- read views used by the facade ---------------------------------------

// posting is one live posting gathered for scoring.
type posting struct {
	doc    DocID
	tf     uint64
	docLen float64 // set only when the ranking reads it (BM25)
}

// appendLivePostings appends the in-memory postings of term whose document
// version lives in segment seg according to owner (skipping tombstoned or
// superseded versions; a nil owner keeps every posting), with doc lengths
// when withLen, and returns them with the term's spilled posting count — all
// under one read lock of this segment. Callers must hold a lock that
// excludes writers to owner (the facade read lock does).
func (ix *Inverted) appendLivePostings(dst []posting, term Term, owner map[DocID]int, seg int, withLen bool) ([]posting, int) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for doc, tf := range ix.postings[term] {
		if owner != nil {
			if own, ok := owner[doc]; !ok || own != seg {
				continue
			}
		}
		p := posting{doc: doc, tf: tf}
		if withLen {
			p.docLen = float64(ix.docLens[doc])
		}
		dst = append(dst, p)
	}
	return dst, ix.spilled[term]
}

// docLenView returns the stored length of doc (0 if absent).
func (ix *Inverted) docLenView(doc DocID) uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.docLens[doc]
}

// liveDocs reconstructs the full term-frequency map of every document
// accepted by keep, merging in-memory postings with spilled ones. Documents
// are returned in DocID order for determinism. Stale spill records (a term
// the doc's latest version no longer contains, or a tombstoned doc) are
// skipped; among duplicate records for one (term, doc) the latest appended
// wins, unless a fresher in-memory posting exists.
func (ix *Inverted) liveDocs(keep func(DocID) bool) ([]BatchDoc, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	docs := make(map[DocID]map[Term]uint64)
	for doc, set := range ix.docTerms {
		if keep != nil && !keep(doc) {
			continue
		}
		docs[doc] = make(map[Term]uint64, len(set))
	}
	for term, pl := range ix.postings {
		for doc, tf := range pl {
			if m, ok := docs[doc]; ok {
				m[term] = tf
			}
		}
	}
	if ix.spill != nil {
		records, err := ix.spill.readAll()
		if err != nil {
			return nil, err
		}
		for _, rec := range records {
			m, ok := docs[rec.Doc]
			if !ok {
				continue
			}
			if _, dead := ix.tombstone[rec.Doc]; dead {
				continue
			}
			set := ix.docTerms[rec.Doc]
			if _, has := set[rec.Term]; !has {
				continue // stale record from a superseded version
			}
			if pl := ix.postings[rec.Term]; pl != nil {
				if _, inMem := pl[rec.Doc]; inMem {
					continue // fresher in-memory posting wins
				}
			}
			m[rec.Term] = rec.Freq
		}
	}
	out := make([]BatchDoc, 0, len(docs))
	for doc, terms := range docs {
		out = append(out, BatchDoc{Doc: doc, Terms: terms})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Doc < out[j].Doc })
	return out, nil
}
