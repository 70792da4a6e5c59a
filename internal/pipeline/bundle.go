package pipeline

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"strings"

	"cardpi"
	"cardpi/internal/codec"
	"cardpi/internal/conformal"
	"cardpi/internal/dataset"
	"cardpi/internal/gbm"
	"cardpi/internal/histogram"
	"cardpi/internal/lwnn"
	"cardpi/internal/mscn"
	"cardpi/internal/naru"
	"cardpi/internal/spn"
	"cardpi/internal/workload"
)

// The artifact bundle: one file freezing the result of Build — the trained
// estimator plus the calibrated conformal state — with enough provenance to
// reconstruct everything else (the table, feature pipelines, grouping
// functions) deterministically from the recorded (dataset, rows, seed).
// Loading a bundle performs zero training and produces bit-identical
// intervals. File layout:
//
//	"CPI" | version:u8            — 4-byte header; version outside any
//	                                checksum so a future reader can always
//	                                classify the file
//	section "manifest"            — JSON Manifest (provenance + per-section
//	                                CRC-32s)
//	section "model"               — family-specific model bytes
//	section "quantile-lo", "quantile-hi"
//	                              — cqr only: the two pinball models
//	section "calibration"         — method-specific frozen conformal state
//	section "calwl"               — the labeled calibration workload, so
//	                                serving can seed the adaptive monitor
//	                                and calibrate fallbacks without
//	                                re-counting ground truth
//
// Every section rides the codec framing (length-prefixed, CRC-32); the
// manifest additionally records each section's CRC, binding the parts
// together so sections cannot be swapped between bundles undetected.
//
// Versioning policy: SchemaVersion (and the header byte) bump on any
// incompatible layout change; readers reject other versions with
// ErrSchemaVersion rather than guessing. Model/calibration payloads carry
// their own per-type magic+version tags, so a format change in one family
// bumps that tag, not the bundle version.

// SchemaVersion is the artifact bundle layout version this build reads and
// writes.
const SchemaVersion = 1

// bundleMagic is the 3-byte file magic preceding the version byte.
var bundleMagic = [3]byte{'C', 'P', 'I'}

// Typed load failures, distinguishable with errors.Is. Corruption inside a
// section surfaces as codec.ErrChecksum or codec.ErrTruncated instead.
var (
	// ErrNotArtifact reports a file that does not start with the bundle
	// magic — not a cardpi artifact at all.
	ErrNotArtifact = errors.New("pipeline: not a cardpi artifact")
	// ErrSchemaVersion reports an artifact written by an incompatible
	// bundle layout version.
	ErrSchemaVersion = errors.New("pipeline: unsupported artifact schema version")
	// ErrMismatch reports an artifact whose recorded provenance conflicts
	// with what the caller asked for (e.g. -artifact plus a contradicting
	// -model flag).
	ErrMismatch = errors.New("pipeline: artifact does not match request")
	// ErrBadBundle reports a structurally invalid bundle (missing or
	// duplicate sections, manifest/section checksum disagreement).
	ErrBadBundle = errors.New("pipeline: malformed artifact bundle")
)

// Manifest is the provenance record of an artifact bundle: everything
// needed to regenerate the table and auxiliary pipelines, plus per-section
// checksums binding the payloads.
type Manifest struct {
	// SchemaVersion is the bundle layout version (see SchemaVersion).
	SchemaVersion int `json:"schema_version"`
	// Dataset is the synthetic dataset name, or the table name for CSV
	// sources.
	Dataset string `json:"dataset"`
	// Source is "generated" or "csv".
	Source string `json:"source"`
	// Rows is the generated table size (generated sources).
	Rows int `json:"rows"`
	// Queries is the workload size the model was trained/calibrated with.
	Queries int `json:"queries"`
	// Seed is the root random seed of the build.
	Seed int64 `json:"seed"`
	// Alpha is the calibrated miscoverage level.
	Alpha float64 `json:"alpha"`
	// Model is the estimator family.
	Model string `json:"model"`
	// Method is the PI method.
	Method string `json:"method"`
	// Epochs is the training-epoch override used, 0 for family defaults.
	Epochs int `json:"epochs,omitempty"`
	// CalFrac is the calibration-fraction override used by the build, 0
	// for the default 60/40 split. Recorded so inspect can explain a
	// synthesised bundle's hyperparameters; the loader does not need it
	// (calibration state is frozen in the bundle).
	CalFrac float64 `json:"cal_frac,omitempty"`
	// LocalizedKDiv is the localized-CP k-divisor override, 0 for the
	// default (4). Informational, like CalFrac.
	LocalizedKDiv int `json:"localized_kdiv,omitempty"`
	// MondrianMinGroup is the Mondrian merge-floor override, 0 for the
	// default (20). Informational, like CalFrac.
	MondrianMinGroup int `json:"mondrian_min_group,omitempty"`
	// TableFingerprint is the CRC-64 (hex) of the table contents; the
	// loader verifies the regenerated/reloaded table against it.
	TableFingerprint string `json:"table_fingerprint"`
	// Sections maps section name to the CRC-32 (hex) of its payload.
	Sections map[string]string `json:"sections"`
	// Layout maps section name to its payload's byte span, letting a
	// random-access loader (OpenMapped) seek straight to a section instead
	// of scanning the file. Absent in artifacts written before the field
	// existed; readers fall back to a sequential scan. Adding the field is
	// backward compatible, so it does not bump SchemaVersion.
	Layout map[string]SectionSpan `json:"layout,omitempty"`
}

// SectionSpan locates one section's payload inside the artifact file. The
// manifest cannot know its own encoded length while being written, so
// offsets are relative to the first byte after the manifest's section frame,
// not to the start of the file (AbsoluteOffset converts).
type SectionSpan struct {
	// Offset is the payload's byte offset (bytes) relative to the first
	// byte following the manifest section frame. The section's framing
	// (name, length prefix) precedes it and its CRC-32 follows it.
	Offset int64 `json:"offset"`
	// Length is the payload size in bytes, excluding framing.
	Length int64 `json:"length"`
}

// AbsoluteOffset converts the span's manifest-relative offset to a
// file-absolute offset, given the encoded length of the manifest section
// frame (as reported by codec.ParseSection on the bytes after the 4-byte
// header).
func (s SectionSpan) AbsoluteOffset(manifestFrameLen int) int64 {
	return 4 + int64(manifestFrameLen) + s.Offset
}

// TableFingerprint hashes the table contents (names, types, domains, and
// every value) with CRC-64/ECMA. The loader compares it against the
// regenerated or re-loaded table, catching generator drift and wrong-CSV
// mistakes before they become silently wrong estimates.
func TableFingerprint(t *dataset.Table) uint64 {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	cw := codec.NewWriter(h)
	cw.String(t.Name)
	cw.U32(uint32(t.NumCols()))
	for _, c := range t.Cols {
		cw.String(c.Name)
		cw.U8(uint8(c.Type))
		cw.I64(c.DomainSize)
		cw.I64(c.Min)
		cw.I64(c.Max)
		cw.I64s(c.Values)
	}
	return h.Sum64()
}

// SaveBundle freezes a built setup into the artifact format. cfg must be
// the Config the setup was built with — its provenance fields are recorded
// in the manifest and drive reconstruction at load time.
func SaveBundle(w io.Writer, s *Setup, cfg Config) error {
	return saveBundle(w, s, cfg, true)
}

// saveBundle implements SaveBundle. withLayout=false writes a pre-Layout
// bundle (no layout field in the manifest), exercising the sequential-scan
// fallback in tests exactly as an old artifact would.
func saveBundle(w io.Writer, s *Setup, cfg Config, withLayout bool) error {
	model := strings.ToLower(cfg.Model)
	method := strings.ToLower(cfg.Method)
	if err := ValidateCombo(model, method); err != nil {
		return err
	}

	// Serialise the payload sections first: the manifest records their
	// checksums, so it must be assembled last but written first.
	sections := make(map[string][]byte)
	var buf bytes.Buffer
	if _, err := modelWriter(s.Model).WriteTo(&buf); err != nil {
		return fmt.Errorf("pipeline: serialising model: %w", err)
	}
	sections["model"] = append([]byte(nil), buf.Bytes()...)

	calPayload, quantiles, err := calibrationPayload(s.PI, method)
	if err != nil {
		return err
	}
	sections["calibration"] = calPayload
	for name, p := range quantiles {
		sections[name] = p
	}

	buf.Reset()
	if err := writeCalWorkload(&buf, s.Cal); err != nil {
		return err
	}
	sections["calwl"] = append([]byte(nil), buf.Bytes()...)

	man := Manifest{
		SchemaVersion:    SchemaVersion,
		Dataset:          cfg.Dataset,
		Source:           "generated",
		Rows:             cfg.Rows,
		Queries:          cfg.Queries,
		Seed:             cfg.Seed,
		Alpha:            cfg.Alpha,
		Model:            model,
		Method:           method,
		Epochs:           cfg.Epochs,
		CalFrac:          cfg.CalFrac,
		LocalizedKDiv:    cfg.LocalizedKDiv,
		MondrianMinGroup: cfg.MondrianMinGroup,
		TableFingerprint: fmt.Sprintf("%016x", TableFingerprint(s.Table)),
		Sections:         make(map[string]string, len(sections)),
	}
	if cfg.CSVPath != "" {
		man.Source = "csv"
		man.Dataset = s.Table.Name
	}
	for name, p := range sections {
		man.Sections[name] = fmt.Sprintf("%08x", codec.Checksum(p))
	}
	// The payload sections follow the manifest in the fixed order below, so
	// their offsets are fully determined before anything is written: each
	// frame is nameLen(4) + name + payloadLen(8) + payload + crc(4). Offsets
	// are manifest-relative (see SectionSpan) because the manifest cannot
	// include its own encoded length.
	if withLayout {
		man.Layout = make(map[string]SectionSpan, len(sections))
		var off int64
		for _, name := range sectionOrder {
			p, ok := sections[name]
			if !ok {
				continue
			}
			payloadOff := off + 4 + int64(len(name)) + 8
			man.Layout[name] = SectionSpan{Offset: payloadOff, Length: int64(len(p))}
			off = payloadOff + int64(len(p)) + 4
		}
	}
	manJSON, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("pipeline: encoding manifest: %w", err)
	}

	cw := codec.NewWriter(w)
	cw.Raw(bundleMagic[:])
	cw.U8(SchemaVersion)
	if err := cw.Err(); err != nil {
		return err
	}
	if _, err := codec.WriteSection(w, "manifest", manJSON); err != nil {
		return err
	}
	for _, name := range sectionOrder {
		p, ok := sections[name]
		if !ok {
			continue
		}
		if _, err := codec.WriteSection(w, name, p); err != nil {
			return err
		}
	}
	return nil
}

// sectionOrder is the fixed payload-section write order, for
// bit-reproducible files (maps iterate randomly) and deterministic Layout
// offsets.
var sectionOrder = []string{"model", "quantile-lo", "quantile-hi", "calibration", "calwl"}

// modelWriter returns the model's serialiser. Every family in the combos
// table implements io.WriterTo; reaching this with anything else is a
// programming error surfaced at write time.
func modelWriter(m cardpi.Estimator) io.WriterTo {
	if wt, ok := m.(io.WriterTo); ok {
		return wt
	}
	return failingWriter{name: m.Name()}
}

type failingWriter struct{ name string }

func (f failingWriter) WriteTo(io.Writer) (int64, error) {
	return 0, fmt.Errorf("pipeline: model %q is not serialisable", f.name)
}

// calibrationPayload freezes the PI wrapper's conformal state. The wrapper
// type must match the declared method; quantile model sections (cqr only)
// are returned separately.
func calibrationPayload(pi cardpi.PI, method string) (payload []byte, quantiles map[string][]byte, err error) {
	var buf bytes.Buffer
	switch p := pi.(type) {
	case *cardpi.SplitCP:
		if method != "s-cp" {
			return nil, nil, fmt.Errorf("%w: wrapper is s-cp but method is %q", ErrMismatch, method)
		}
		_, err = p.Calibration().WriteTo(&buf)
	case *cardpi.LocallyWeighted:
		if method != "lw-s-cp" {
			return nil, nil, fmt.Errorf("%w: wrapper is lw-s-cp but method is %q", ErrMismatch, method)
		}
		cw := codec.NewWriter(&buf)
		cw.F64(p.Beta())
		if err = cw.Err(); err != nil {
			break
		}
		if _, err = p.DifficultyModel().WriteTo(&buf); err != nil {
			break
		}
		_, err = p.Calibration().WriteTo(&buf)
	case *cardpi.Localized:
		if method != "lcp" {
			return nil, nil, fmt.Errorf("%w: wrapper is lcp but method is %q", ErrMismatch, method)
		}
		_, err = p.Calibration().WriteTo(&buf)
	case *cardpi.Mondrian:
		if method != "mondrian" {
			return nil, nil, fmt.Errorf("%w: wrapper is mondrian but method is %q", ErrMismatch, method)
		}
		_, err = p.Calibration().WriteTo(&buf)
	case *cardpi.CQR:
		if method != "cqr" {
			return nil, nil, fmt.Errorf("%w: wrapper is cqr but method is %q", ErrMismatch, method)
		}
		lo, hi := p.Models()
		var qb bytes.Buffer
		quantiles = make(map[string][]byte, 2)
		if _, err = modelWriter(lo).WriteTo(&qb); err != nil {
			break
		}
		quantiles["quantile-lo"] = append([]byte(nil), qb.Bytes()...)
		qb.Reset()
		if _, err = modelWriter(hi).WriteTo(&qb); err != nil {
			break
		}
		quantiles["quantile-hi"] = append([]byte(nil), qb.Bytes()...)
		_, err = p.Calibration().WriteTo(&buf)
	default:
		return nil, nil, fmt.Errorf("pipeline: PI wrapper %T is not serialisable", pi)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("pipeline: serialising %s calibration: %w", method, err)
	}
	return append([]byte(nil), buf.Bytes()...), quantiles, nil
}

// calwlMagic tags the calibration-workload section payload.
var calwlMagic = [4]byte{'C', 'W', 'L', '1'}

// maxCalQueries bounds decoded workload sizes as a corruption guard.
const maxCalQueries = 1 << 24

// writeCalWorkload serialises the labeled calibration split. Only
// single-table workloads are bundled (the join path has no artifact mode).
func writeCalWorkload(w io.Writer, wl *workload.Workload) error {
	if wl == nil {
		return fmt.Errorf("pipeline: nil calibration workload")
	}
	cw := codec.NewWriter(w)
	cw.Raw(calwlMagic[:])
	cw.I64(wl.NormN)
	cw.U32(uint32(len(wl.Queries)))
	for _, lq := range wl.Queries {
		if lq.Query.IsJoin() {
			return fmt.Errorf("pipeline: join queries cannot be bundled")
		}
		cw.U32(uint32(len(lq.Query.Preds)))
		for _, p := range lq.Query.Preds {
			cw.String(p.Col)
			cw.U8(uint8(p.Op))
			cw.I64(p.Lo)
			cw.I64(p.Hi)
		}
		cw.I64(lq.Card)
		cw.F64(lq.Sel)
		cw.I64(lq.Norm)
	}
	return cw.Err()
}

// readCalWorkload deserialises a workload written by writeCalWorkload,
// binding it to the reloaded table.
func readCalWorkload(r io.Reader, tab *dataset.Table) (*workload.Workload, error) {
	cr := codec.NewReader(r)
	var mg [4]byte
	cr.Raw(mg[:])
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: reading calibration workload: %w", err)
	}
	if mg != calwlMagic {
		return nil, fmt.Errorf("%w: bad calibration workload magic %q", ErrBadBundle, mg)
	}
	normN := cr.I64()
	count := cr.U32()
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: reading calibration workload header: %w", err)
	}
	if count == 0 || count > maxCalQueries {
		return nil, fmt.Errorf("%w: implausible calibration workload size %d", ErrBadBundle, count)
	}
	wl := &workload.Workload{Table: tab, NormN: normN, Queries: make([]workload.Labeled, count)}
	for i := range wl.Queries {
		numPreds := cr.U32()
		if cr.Err() != nil {
			break
		}
		if numPreds > 64 {
			return nil, fmt.Errorf("%w: query %d has implausible predicate count %d", ErrBadBundle, i, numPreds)
		}
		preds := make([]dataset.Predicate, numPreds)
		for j := range preds {
			preds[j].Col = cr.String(codec.MaxStringLen)
			op := cr.U8()
			preds[j].Lo = cr.I64()
			preds[j].Hi = cr.I64()
			if cr.Err() != nil {
				break
			}
			if op > uint8(dataset.OpRange) {
				return nil, fmt.Errorf("%w: query %d has unknown predicate op %d", ErrBadBundle, i, op)
			}
			preds[j].Op = dataset.Op(op)
			if tab.Column(preds[j].Col) == nil {
				return nil, fmt.Errorf("%w: query %d predicate on unknown column %q", ErrBadBundle, i, preds[j].Col)
			}
		}
		wl.Queries[i] = workload.Labeled{
			Query: workload.Query{Preds: preds},
			Card:  cr.I64(),
			Sel:   cr.F64(),
			Norm:  cr.I64(),
		}
	}
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: reading calibration workload: %w", err)
	}
	return wl, nil
}

// LoadOptions controls LoadBundle.
type LoadOptions struct {
	// CSVPath supplies the table for artifacts built from CSV sources
	// (the bundle stores a fingerprint, not the data).
	CSVPath string
	// ExpectModel, when non-empty, rejects artifacts whose recorded model
	// family differs (the serve -artifact -model conflict check).
	ExpectModel string
	// ExpectMethod, when non-empty, rejects artifacts whose recorded
	// method differs.
	ExpectMethod string
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// ReadHeader consumes and validates the 4-byte bundle header, returning the
// version byte. ErrNotArtifact / ErrSchemaVersion classify failures.
func ReadHeader(r io.Reader) (uint8, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrNotArtifact, err)
	}
	if [3]byte{hdr[0], hdr[1], hdr[2]} != bundleMagic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrNotArtifact, hdr[:3])
	}
	if hdr[3] != SchemaVersion {
		return 0, fmt.Errorf("%w: artifact has version %d, this build reads version %d",
			ErrSchemaVersion, hdr[3], SchemaVersion)
	}
	return hdr[3], nil
}

// ReadManifest parses just the header and manifest — what `cardpi inspect`
// needs — without touching the model payloads.
func ReadManifest(r io.Reader) (*Manifest, error) {
	if _, err := ReadHeader(r); err != nil {
		return nil, err
	}
	name, payload, err := codec.ReadSection(r)
	if err != nil {
		return nil, err
	}
	if name != "manifest" {
		return nil, fmt.Errorf("%w: first section is %q, want \"manifest\"", ErrBadBundle, name)
	}
	var man Manifest
	if err := json.Unmarshal(payload, &man); err != nil {
		return nil, fmt.Errorf("%w: manifest JSON: %v", ErrBadBundle, err)
	}
	if man.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("%w: manifest declares version %d, this build reads version %d",
			ErrSchemaVersion, man.SchemaVersion, SchemaVersion)
	}
	return &man, nil
}

// LoadBundle reconstructs a Setup from an artifact: it re-derives the table
// from the manifest's provenance (verifying the fingerprint), deserialises
// the model and frozen calibration state, and reassembles the PI wrapper —
// with zero training and bit-identical intervals. Setup.Train is nil.
func LoadBundle(r io.Reader, opts LoadOptions) (*Setup, *Manifest, error) {
	man, err := ReadManifest(r)
	if err != nil {
		return nil, nil, err
	}
	if err := checkExpectations(man, opts); err != nil {
		return nil, nil, err
	}

	// Read the remaining sections. The codec framing verifies each
	// section's self-integrity; bindSections then binds them to this
	// manifest. A clean end of file is detected by peeking — any shortfall
	// inside a section is a truncation error, not an end.
	sections := make(map[string][]byte)
	br := bufio.NewReader(r)
	for {
		if _, err := br.Peek(1); err == io.EOF {
			break
		}
		name, payload, err := codec.ReadSection(br)
		if err != nil {
			return nil, nil, err
		}
		if _, dup := sections[name]; dup {
			return nil, nil, fmt.Errorf("%w: duplicate section %q", ErrBadBundle, name)
		}
		sections[name] = payload
	}
	if err := bindSections(man, sections); err != nil {
		return nil, nil, err
	}

	s, err := assembleSetup(man, sections, opts)
	if err != nil {
		return nil, nil, err
	}
	return s, man, nil
}

// checkExpectations enforces the caller's declared model/method expectations
// against the manifest and validates the recorded combo.
func checkExpectations(man *Manifest, opts LoadOptions) error {
	if opts.ExpectModel != "" && !strings.EqualFold(opts.ExpectModel, man.Model) {
		return fmt.Errorf("%w: artifact was built with model %q, requested %q",
			ErrMismatch, man.Model, opts.ExpectModel)
	}
	if opts.ExpectMethod != "" && !strings.EqualFold(opts.ExpectMethod, man.Method) {
		return fmt.Errorf("%w: artifact was built with method %q, requested %q",
			ErrMismatch, man.Method, opts.ExpectMethod)
	}
	if err := ValidateCombo(man.Model, man.Method); err != nil {
		return fmt.Errorf("%w: manifest combo: %v", ErrBadBundle, err)
	}
	return nil
}

// bindSections verifies that the payload sections and the manifest agree:
// every section present is declared with a matching CRC-32, and every
// declared section is present. The codec framing already proved each
// payload's self-integrity; this binds the parts to this manifest so
// sections cannot be swapped between bundles undetected.
func bindSections(man *Manifest, sections map[string][]byte) error {
	for name, payload := range sections {
		want, known := man.Sections[name]
		if !known {
			return fmt.Errorf("%w: section %q not declared in manifest", ErrBadBundle, name)
		}
		if got := fmt.Sprintf("%08x", codec.Checksum(payload)); got != want {
			return fmt.Errorf("%w: section %q has checksum %s, manifest declares %s",
				codec.ErrChecksum, name, got, want)
		}
	}
	for name := range man.Sections {
		if _, ok := sections[name]; !ok {
			return fmt.Errorf("%w: missing section %q", ErrBadBundle, name)
		}
	}
	return nil
}

// assembleSetup is the back half of every bundle load, shared by LoadBundle
// and MappedBundle.Load: rebuild the table from provenance (verifying the
// fingerprint), deserialise the model and frozen calibration state, and
// reassemble the PI wrapper. The section payloads are only read, never
// retained — safe to pass windows into an mmap that is unmapped after.
func assembleSetup(man *Manifest, sections map[string][]byte, opts LoadOptions) (*Setup, error) {
	var tab *dataset.Table
	var err error
	if man.Source == "csv" {
		if opts.CSVPath == "" {
			return nil, fmt.Errorf("%w: artifact was built from CSV table %q; pass -csv with the same file",
				ErrMismatch, man.Dataset)
		}
		tab, err = BuildTable("", opts.CSVPath, 0, 0, opts.Logf)
	} else {
		tab, err = BuildTable(man.Dataset, "", man.Rows, man.Seed, opts.Logf)
	}
	if err != nil {
		return nil, err
	}
	if got := fmt.Sprintf("%016x", TableFingerprint(tab)); got != man.TableFingerprint {
		return nil, fmt.Errorf("%w: table fingerprint %s does not match artifact's %s "+
			"(different data generator build or wrong CSV file)", ErrMismatch, got, man.TableFingerprint)
	}

	m, err := loadModel(man.Model, bytes.NewReader(sections["model"]), tab, man.Seed)
	if err != nil {
		return nil, fmt.Errorf("pipeline: loading model: %w", err)
	}
	cal, err := readCalWorkload(bytes.NewReader(sections["calwl"]), tab)
	if err != nil {
		return nil, err
	}
	pi, err := loadPI(man, sections, m, tab)
	if err != nil {
		return nil, err
	}
	return &Setup{Table: tab, Model: m, PI: pi, Cal: cal}, nil
}

// loadModel deserialises one model family, rebuilding its auxiliary
// pipelines (featurizers, feature samples) deterministically from the table
// and the recorded seed.
func loadModel(family string, r io.Reader, tab *dataset.Table, seed int64) (cardpi.Estimator, error) {
	switch family {
	case "spn":
		return spn.ReadModel(r, tab)
	case "mscn":
		return mscn.ReadModel(r, mscn.NewSingleFeaturizer(tab))
	case "lwnn":
		feats, err := lwnn.NewFeatures(tab, lwnnSampleSize, seed+modelSeedOff)
		if err != nil {
			return nil, err
		}
		return lwnn.ReadModel(r, feats)
	case "naru":
		return naru.ReadModel(r, tab)
	case "histogram":
		return histogram.ReadSingle(r, tab)
	default:
		return nil, fmt.Errorf("unknown model family %q", family)
	}
}

// loadPI reassembles the PI wrapper from the frozen calibration section.
func loadPI(man *Manifest, sections map[string][]byte, m cardpi.Estimator, tab *dataset.Table) (cardpi.PI, error) {
	calR := bytes.NewReader(sections["calibration"])
	switch man.Method {
	case "s-cp":
		cp, err := conformal.ReadSplitCP(calR)
		if err != nil {
			return nil, err
		}
		return cardpi.NewSplitCPFrom(m, cp)
	case "lw-s-cp":
		cr := codec.NewReader(calR)
		beta := cr.F64()
		if err := cr.Err(); err != nil {
			return nil, fmt.Errorf("pipeline: reading difficulty offset: %w", err)
		}
		g, err := gbm.ReadRegressor(calR)
		if err != nil {
			return nil, err
		}
		lw, err := conformal.ReadLocallyWeighted(calR)
		if err != nil {
			return nil, err
		}
		return cardpi.NewLocallyWeightedFrom(m, lw, g, Featurizer(tab), beta)
	case "lcp":
		lcp, err := conformal.ReadLocalized(calR)
		if err != nil {
			return nil, err
		}
		return cardpi.NewLocalizedFrom(m, lcp, Featurizer(tab))
	case "mondrian":
		mon, err := conformal.ReadMondrian(calR)
		if err != nil {
			return nil, err
		}
		return cardpi.NewMondrianFrom(m, mon, PredCountGroup)
	case "cqr":
		lo, err := loadModel(man.Model, bytes.NewReader(sections["quantile-lo"]), tab, man.Seed)
		if err != nil {
			return nil, fmt.Errorf("pipeline: loading quantile-lo model: %w", err)
		}
		hi, err := loadModel(man.Model, bytes.NewReader(sections["quantile-hi"]), tab, man.Seed)
		if err != nil {
			return nil, fmt.Errorf("pipeline: loading quantile-hi model: %w", err)
		}
		cqr, err := conformal.ReadCQR(calR)
		if err != nil {
			return nil, err
		}
		return cardpi.NewCQRFrom(lo, hi, cqr)
	default:
		return nil, fmt.Errorf("unknown method %q", man.Method)
	}
}
