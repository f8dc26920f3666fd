//! The content-hashed artifact store.
//!
//! Layout under `<data-dir>/store/`:
//!
//! ```text
//! store/<32-hex program hash>/
//!   spec.unity            # the source that first produced this program
//!   ts_reachable.seg      # packed TransitionSystem, Reachable universe
//!   ts_all_states.seg     # packed TransitionSystem, AllStates universe
//!   pred_reachable.seg    # predecessor CSR over ts_reachable
//!   pred_all_states.seg   # predecessor CSR over ts_all_states
//!   field_order.seg       # tuned BDD field order (symbolic engine)
//!   certs.seg             # component certificates (compositional runs)
//! ```
//!
//! Directories are keyed by [`unity_ag::cert::program_hash`] — the
//! content hash of the *program* (its canonical text), not the spec
//! file. Two spec files that differ only in check lines or comments
//! share one program hash and therefore one set of artifacts: editing a
//! check costs nothing but the check itself (**delta keying**). The
//! spec-file hash ([`spec_hash`]) still exists, but it identifies
//! *submissions* — journal records, history filters, reply-cache keys —
//! never artifacts. Component certificates use the same program-hash
//! scheme, so one keying discipline covers every artifact kind.
//!
//! Every `.seg` file is a [`unity_mc::artifact`] segment: versioned
//! magic header, artifact kind, payload length, checksum. Decoding is
//! defensive end to end — a missing, truncated, corrupt, or
//! version-skewed segment is a **cache miss** (the artifact rebuilds
//! from the spec), never an error and never trusted bytes. A segment
//! that is present but fails to decode is removed, so the next save of
//! that program writes it afresh. Predecessor indexes only decode
//! against a successfully decoded transition system of the same
//! universe, so their structural validation
//! (`PredIndex::from_artifact_bytes`) always has the true state/edge
//! counts to check against.
//!
//! A small in-memory layer (most-recently-submitted specs, capped at
//! [`MEM_CACHE_SPECS`]) fronts the disk: re-submitting a spec the
//! daemon has already seen skips even the segment decode. Writes are
//! atomic (temp file + rename), so a crashed process leaves either the
//! old segment or the new one, not a torn file. Segments are caches and
//! are not fsync'd: after a power cut one may be torn or empty, which
//! reads as a miss and is rewritten. The verdict journal is what is
//! durable.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::Hasher as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use unity_ag::cert::{CertKey, CertStore};
use unity_core::hash::FxHasher;
use unity_core::program::Program;
use unity_mc::artifact::{decode_segment, encode_segment, ByteReader, ByteWriter};
use unity_mc::prelude::{PredIndex, ScanConfig, SessionArtifacts, TransitionSystem};

/// Specs kept decoded in memory (FIFO eviction).
pub const MEM_CACHE_SPECS: usize = 32;

/// Segment kind byte: packed transition system.
pub const KIND_TRANSITION_SYSTEM: u8 = 1;
/// Segment kind byte: predecessor CSR.
pub const KIND_PRED_INDEX: u8 = 2;
/// Segment kind byte: BDD field order.
pub const KIND_FIELD_ORDER: u8 = 3;
/// Segment kind byte: component certificates.
pub const KIND_CERTS: u8 = 4;

/// Universe slot names, indexed like `SessionArtifacts::ts`.
const UNIVERSE_SLOT: [&str; 2] = ["reachable", "all_states"];

/// Content hash of a spec source: two independently salted FxHash
/// passes over the bytes, 32 hex chars. This is the *submission*
/// identity — journal records, history filters, and reply-cache keys —
/// while artifacts key by [`unity_ag::cert::program_hash`]. Not
/// cryptographic — it names operator-submitted specs — but 128 bits
/// keep accidental collisions out of reach, and the stored `spec.unity`
/// makes any collision observable.
pub fn spec_hash(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut lo = FxHasher::default();
    lo.write(bytes);
    let mut hi = FxHasher::default();
    // A different prefix decorrelates the second pass; the length
    // breaks FxHash's trailing-NUL padding collisions.
    hi.write_u64(0x6a09_e667_f3bc_c908);
    hi.write_u64(bytes.len() as u64);
    hi.write(bytes);
    format!("{:016x}{:016x}", lo.finish(), hi.finish())
}

struct MemCache {
    map: HashMap<String, SessionArtifacts>,
    order: VecDeque<String>,
}

/// The on-disk artifact store plus its in-memory front.
pub struct ArtifactStore {
    root: PathBuf,
    mem: Mutex<MemCache>,
}

fn lock(m: &Mutex<MemCache>) -> MutexGuard<'_, MemCache> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Numbers this process's temp files, so concurrent writes never share one.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Atomic file write: temp sibling + rename. A process crash anywhere in
/// here leaves either no destination file or the complete old one — the
/// `store.save.torn` failpoint proves it by writing a prefix of the
/// temp file and aborting before the rename. Each write gets its own
/// temp name (`<file>.<pid>.<n>.tmp`): two concurrent saves of one
/// segment would otherwise truncate each other's temp file, and the
/// loser's rename would fail. A failed write removes its temp file.
///
/// Nothing here is durable: the data is not fsync'd before the rename,
/// so a power cut may leave the new name holding torn or no bytes. Every
/// caller writes a checksummed segment (or the spec source, which is
/// never read back as an artifact), so such a file reads as a miss, and
/// the load that finds it removes it for the next save to rewrite. Only
/// the verdict journal fsyncs, before every acknowledgement.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let written = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        unity_fault::fail_torn_write!("store.save.torn", f, bytes);
        std::io::Write::write_all(&mut f, bytes)?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

impl ArtifactStore {
    /// Opens (creating if needed) the store rooted at `root`.
    pub fn open(root: PathBuf) -> std::io::Result<ArtifactStore> {
        std::fs::create_dir_all(&root)?;
        Ok(ArtifactStore {
            root,
            mem: Mutex::new(MemCache {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
        })
    }

    /// The directory holding one program's artifacts.
    pub fn program_dir(&self, hash: &str) -> PathBuf {
        self.root.join(hash)
    }

    /// Number of distinct programs with a persisted directory.
    pub fn known_programs(&self) -> u64 {
        std::fs::read_dir(&self.root)
            .map(|rd| rd.filter_map(Result::ok).count() as u64)
            .unwrap_or(0)
    }

    /// Loads whatever artifacts the store has for `hash`, decoded
    /// against `program`/`cfg` (the freshly parsed submission). Every
    /// failure — absent file, corrupt segment, mismatched shape — is an
    /// empty slot, and a segment that is present but does not decode is
    /// removed so that the next [`ArtifactStore::save`] rewrites it.
    pub fn load(&self, hash: &str, program: &Program, cfg: &ScanConfig) -> SessionArtifacts {
        if let Some(cached) = lock(&self.mem).map.get(hash) {
            return cached.clone();
        }
        // Injected disk-read failure: every slot is a miss, exactly the
        // contract real read errors get below.
        unity_fault::fail_point!("store.load.read", |_m: String| SessionArtifacts::default());
        let dir = self.program_dir(hash);
        let mut arts = SessionArtifacts::default();
        // A reference-engine session has no packed layout, so no stored
        // transition system applies to it, however sound its bytes.
        let slots = if cfg.uses_compiled() {
            &UNIVERSE_SLOT[..]
        } else {
            &[]
        };
        for (k, slot) in slots.iter().enumerate() {
            let ts_path = dir.join(format!("ts_{slot}.seg"));
            let Ok(ts_bytes) = std::fs::read(&ts_path) else {
                continue;
            };
            let Some(ts) = decode_ts(&ts_bytes, program, cfg) else {
                discard(&ts_path);
                continue;
            };
            // The predecessor index is only meaningful relative to a
            // decoded transition system: its validation needs the true
            // state and edge counts.
            let pred_path = dir.join(format!("pred_{slot}.seg"));
            if let Ok(pred_bytes) = std::fs::read(&pred_path) {
                arts.pred[k] = decode_pred(&pred_bytes, &ts).map(Arc::new);
                if arts.pred[k].is_none() {
                    discard(&pred_path);
                }
            }
            arts.ts[k] = Some(Arc::new(ts));
        }
        let order_path = dir.join("field_order.seg");
        if let Ok(order_bytes) = std::fs::read(&order_path) {
            arts.field_order = decode_field_order(&order_bytes);
            if arts.field_order.is_none() {
                discard(&order_path);
            }
        }
        if !arts.is_empty() {
            self.remember(hash, arts.clone());
        }
        arts
    }

    /// Persists the submitted source (once) and every artifact the
    /// session produced. Slots whose segment file already exists are
    /// skipped — a hit re-persisting itself would be wasted I/O.
    pub fn save(&self, hash: &str, spec_src: &str, arts: &SessionArtifacts) -> Result<(), String> {
        let dir = self.program_dir(hash);
        unity_fault::fail_point!("store.save.dir", |m: String| Err(format!(
            "{}: {m}",
            dir.display()
        )));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        // Encoding a multi-megabyte segment just to discover the file is
        // already there would tax every warm submission, so `put` checks
        // existence before asking the closure to produce any bytes.
        let put = |name: String, bytes: &dyn Fn() -> Option<Vec<u8>>| -> Result<(), String> {
            let path = dir.join(name);
            if path.exists() {
                return Ok(());
            }
            unity_fault::fail_point!("store.save.segment", |m: String| Err(format!(
                "{}: {m}",
                path.display()
            )));
            match bytes() {
                Some(b) => write_atomic(&path, &b).map_err(|e| format!("{}: {e}", path.display())),
                None => Ok(()),
            }
        };
        put("spec.unity".into(), &|| Some(spec_src.as_bytes().to_vec()))?;
        for (k, slot) in UNIVERSE_SLOT.iter().enumerate() {
            if let Some(ts) = &arts.ts[k] {
                // Explicit (uncompiled) stores have no artifact form;
                // they rebuild instead — same policy as a cache miss.
                put(format!("ts_{slot}.seg"), &|| {
                    ts.to_artifact_bytes()
                        .map(|payload| encode_segment(KIND_TRANSITION_SYSTEM, &payload))
                })?;
            }
            if let Some(pred) = &arts.pred[k] {
                put(format!("pred_{slot}.seg"), &|| {
                    Some(encode_segment(KIND_PRED_INDEX, &pred.to_artifact_bytes()))
                })?;
            }
        }
        if let Some(order) = &arts.field_order {
            put("field_order.seg".into(), &|| {
                let mut w = ByteWriter::new();
                w.u32_slice(&order.iter().map(|&v| v as u32).collect::<Vec<u32>>());
                Some(encode_segment(KIND_FIELD_ORDER, &w.into_vec()))
            })?;
        }
        if !arts.is_empty() {
            self.remember(hash, arts.clone());
        }
        Ok(())
    }

    /// Loads every persisted certificate for the given component
    /// program hashes into a seeded [`CertStore`] (nothing dirty).
    /// Decoding is defensive like every other segment: a missing,
    /// corrupt, or malformed `certs.seg` contributes nothing — a miss.
    pub fn load_certs(&self, hashes: &[String]) -> CertStore {
        unity_fault::fail_point!("store.load.read", |_m: String| CertStore::new());
        let mut certs = CertStore::new();
        let mut done: Vec<&str> = Vec::new();
        for hash in hashes {
            // Identical components share one hash and one file.
            if done.contains(&hash.as_str()) {
                continue;
            }
            done.push(hash);
            if let Ok(bytes) = std::fs::read(self.program_dir(hash).join("certs.seg")) {
                decode_certs(&bytes, hash, &mut certs);
            }
        }
        certs
    }

    /// Persists every dirty certificate, grouped into one `certs.seg`
    /// per component program and **merged** with whatever that file
    /// already holds — two systems sharing a component accumulate facts
    /// rather than clobbering each other. Callers clear the store's
    /// dirty set after a successful write.
    ///
    /// Two *concurrent* calls for one component are not merged with each
    /// other: each reads the file, adds its own facts and renames its
    /// result into place, so the last rename wins and the other side's
    /// fresh certificates may be dropped. Both writes succeed and the
    /// file stays whole; a dropped certificate costs a later miss (the
    /// fact is re-checked), never a wrong verdict.
    pub fn save_certs(&self, certs: &CertStore) -> Result<(), String> {
        let mut by_program: BTreeMap<&str, Vec<(&CertKey, bool)>> = BTreeMap::new();
        for (key, passed) in certs.dirty() {
            by_program
                .entry(&key.program)
                .or_default()
                .push((key, passed));
        }
        for (program, fresh) in by_program {
            let dir = self.program_dir(program);
            unity_fault::fail_point!("store.save.dir", |m: String| Err(format!(
                "{}: {m}",
                dir.display()
            )));
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = dir.join("certs.seg");
            unity_fault::fail_point!("store.save.segment", |m: String| Err(format!(
                "{}: {m}",
                path.display()
            )));
            let mut merged = CertStore::new();
            if let Ok(bytes) = std::fs::read(&path) {
                decode_certs(&bytes, program, &mut merged);
            }
            for (key, passed) in fresh {
                merged.seed(key.clone(), passed);
            }
            let mut w = ByteWriter::new();
            w.u32(merged.len() as u32);
            for (key, passed) in merged.iter() {
                w.u8(key.universe);
                w.u8(u8::from(passed));
                w.bytes(key.property.as_bytes());
            }
            write_atomic(&path, &encode_segment(KIND_CERTS, &w.into_vec()))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(())
    }

    fn remember(&self, hash: &str, arts: SessionArtifacts) {
        let mut mem = lock(&self.mem);
        if mem.map.insert(hash.to_string(), arts).is_none() {
            mem.order.push_back(hash.to_string());
            if mem.order.len() > MEM_CACHE_SPECS {
                if let Some(evicted) = mem.order.pop_front() {
                    mem.map.remove(&evicted);
                }
            }
        }
    }

    /// Drops the in-memory layer (tests use this to force disk decode).
    pub fn drop_memory_cache(&self) {
        let mut mem = lock(&self.mem);
        mem.map.clear();
        mem.order.clear();
    }
}

/// Removes a segment that is present but does not decode (torn, corrupt
/// or of another format version): `save` skips a segment file that
/// exists, so left in place it would never be rewritten. If a concurrent
/// save renamed a good segment into place after the bad one was read,
/// that one goes too, which costs one more rebuild, never a wrong
/// verdict.
fn discard(path: &Path) {
    let _ = std::fs::remove_file(path);
}

fn decode_ts(bytes: &[u8], program: &Program, cfg: &ScanConfig) -> Option<TransitionSystem> {
    match decode_segment(bytes) {
        Ok((KIND_TRANSITION_SYSTEM, payload)) => {
            TransitionSystem::from_artifact_bytes(program, cfg, payload).ok()
        }
        _ => None,
    }
}

fn decode_pred(bytes: &[u8], ts: &TransitionSystem) -> Option<PredIndex> {
    match decode_segment(bytes) {
        Ok((KIND_PRED_INDEX, payload)) => {
            PredIndex::from_artifact_bytes(payload, ts.len(), ts.move_count()).ok()
        }
        _ => None,
    }
}

/// Decodes a certificate segment into seeded entries for `program`.
/// Strict within the defensive contract: any malformation discards the
/// whole file (a cache miss), never a partial read.
fn decode_certs(bytes: &[u8], program: &str, certs: &mut CertStore) {
    let payload = match decode_segment(bytes) {
        Ok((KIND_CERTS, p)) => p,
        _ => return,
    };
    let mut r = ByteReader::new(payload);
    let Ok(n) = r.u32() else { return };
    let mut decoded = Vec::new();
    for _ in 0..n {
        let (Ok(universe), Ok(passed), Ok(prop)) = (r.u8(), r.u8(), r.byte_vec()) else {
            return;
        };
        let Ok(property) = String::from_utf8(prop) else {
            return;
        };
        if passed > 1 {
            return;
        }
        decoded.push((universe, passed == 1, property));
    }
    if r.finish().is_err() {
        return;
    }
    for (universe, passed, property) in decoded {
        certs.seed(
            CertKey {
                program: program.to_string(),
                property,
                universe,
            },
            passed,
        );
    }
}

fn decode_field_order(bytes: &[u8]) -> Option<Vec<usize>> {
    match decode_segment(bytes) {
        Ok((KIND_FIELD_ORDER, payload)) => {
            let mut r = ByteReader::new(payload);
            let order = r.u32_vec().ok()?;
            r.finish().ok()?;
            Some(order.into_iter().map(|v| v as usize).collect())
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use unity_mc::prelude::*;
    use unity_mc::spec::load_spec;

    const SPEC: &str = "program P\n  var a : int 0..3\n  var b : int 0..3\n  init a == 0 && b == 0\n  fair cmd right: a < 3 -> a := a + 1\n  fair cmd up: b < 3 -> b := b + 1\nend\nspec S\n  done: true leadsto a == 3 && b == 3\nend";

    fn tmp_store(name: &str) -> ArtifactStore {
        let dir =
            std::env::temp_dir().join(format!("unity_serve_store_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::open(dir).unwrap()
    }

    #[test]
    fn hashes_are_stable_hex_and_content_sensitive() {
        let h = spec_hash(SPEC);
        assert_eq!(h.len(), 32);
        assert!(h.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(h, spec_hash(SPEC), "deterministic");
        assert_ne!(h, spec_hash(&format!("{SPEC} ")), "content-sensitive");
        assert_ne!(spec_hash(""), spec_hash("\0"), "length is mixed in");
    }

    #[test]
    fn artifacts_survive_a_store_round_trip() {
        let store = tmp_store("round_trip");
        let spec = load_spec(SPEC).unwrap();
        let program = &spec.system.composed;
        let cfg = ScanConfig::default();
        let hash = spec_hash(SPEC);

        // Cold: nothing on disk.
        assert!(store.load(&hash, program, &cfg).is_empty());

        let mut session = Verifier::new(program, cfg.clone());
        let report = session.verify_all(&spec.checks);
        assert!(report.all_passed());
        let produced = session.artifacts();
        assert!(produced.ts[0].is_some(), "leadsto built the reachable ts");
        assert!(produced.pred[0].is_some(), "and its predecessor index");
        store.save(&hash, SPEC, &produced).unwrap();

        // Warm via memory.
        let warm = store.load(&hash, program, &cfg);
        assert!(Arc::ptr_eq(
            warm.ts[0].as_ref().unwrap(),
            produced.ts[0].as_ref().unwrap()
        ));

        // Warm via disk only.
        store.drop_memory_cache();
        let disk = store.load(&hash, program, &cfg);
        let ts = disk.ts[0].as_ref().expect("decoded from segment");
        assert_eq!(ts.len(), produced.ts[0].as_ref().unwrap().len());
        assert!(disk.pred[0].is_some());
        assert_eq!(
            std::fs::read_to_string(store.program_dir(&hash).join("spec.unity")).unwrap(),
            SPEC
        );
        assert_eq!(store.known_programs(), 1);
    }

    #[test]
    fn corrupt_segments_degrade_to_misses() {
        let store = tmp_store("corrupt");
        let spec = load_spec(SPEC).unwrap();
        let program = &spec.system.composed;
        let cfg = ScanConfig::default();
        let hash = spec_hash(SPEC);
        let mut session = Verifier::new(program, cfg.clone());
        let _ = session.verify_all(&spec.checks);
        store.save(&hash, SPEC, &session.artifacts()).unwrap();
        store.drop_memory_cache();

        // Flip one payload byte in the transition-system segment: both
        // it and the (dependent) predecessor index become misses.
        let ts_path = store.program_dir(&hash).join("ts_reachable.seg");
        let mut bytes = std::fs::read(&ts_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&ts_path, &bytes).unwrap();
        let loaded = store.load(&hash, program, &cfg);
        assert!(loaded.ts[0].is_none());
        assert!(loaded.pred[0].is_none());
    }

    #[test]
    fn a_segment_that_failed_to_decode_is_rewritten_by_the_next_save() {
        let store = tmp_store("rewrite");
        let spec = load_spec(SPEC).unwrap();
        let program = &spec.system.composed;
        let cfg = ScanConfig::default();
        let hash = spec_hash(SPEC);
        let mut session = Verifier::new(program, cfg.clone());
        let _ = session.verify_all(&spec.checks);
        let built = session.artifacts();
        store.save(&hash, SPEC, &built).unwrap();
        store.drop_memory_cache();

        let ts_path = store.program_dir(&hash).join("ts_reachable.seg");
        let mut bytes = std::fs::read(&ts_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&ts_path, &bytes).unwrap();
        let loaded = store.load(&hash, program, &cfg);
        assert!(loaded.ts[0].is_none(), "a flipped byte is a miss");

        let mut session = Verifier::new(program, cfg.clone());
        session.seed(loaded);
        let _ = session.verify_all(&spec.checks);
        store.save(&hash, SPEC, &session.artifacts()).unwrap();
        store.drop_memory_cache();
        let reloaded = store.load(&hash, program, &cfg);
        let ts = reloaded.ts[0]
            .as_ref()
            .expect("the save rewrote the segment");
        let want = built.ts[0].as_ref().unwrap();
        assert_eq!((ts.len(), ts.move_count()), (want.len(), want.move_count()));
        assert!(reloaded.pred[0].is_some());
    }

    #[test]
    fn a_reference_session_leaves_packed_segments_alone() {
        // No packed layout applies under the reference engine, so its
        // load must neither use nor remove the segments.
        let store = tmp_store("reference");
        let spec = load_spec(SPEC).unwrap();
        let program = &spec.system.composed;
        let hash = spec_hash(SPEC);
        let mut session = Verifier::new(program, ScanConfig::default());
        let _ = session.verify_all(&spec.checks);
        store.save(&hash, SPEC, &session.artifacts()).unwrap();
        store.drop_memory_cache();
        assert!(store.load(&hash, program, &ScanConfig::reference()).ts[0].is_none());
        store.drop_memory_cache();
        assert!(store.load(&hash, program, &ScanConfig::default()).ts[0].is_some());
    }

    #[test]
    fn malformed_move_rows_and_version_2_segments_are_misses() {
        use unity_mc::artifact::SEGMENT_MAGIC;
        let store = tmp_store("moves");
        let spec = load_spec(SPEC).unwrap();
        let program = &spec.system.composed;
        let cfg = ScanConfig::default();
        let hash = spec_hash(SPEC);
        let mut session = Verifier::new(program, cfg.clone());
        let _ = session.verify_all(&spec.checks);
        store.save(&hash, SPEC, &session.artifacts()).unwrap();
        let ts_path = store.program_dir(&hash).join("ts_reachable.seg");
        let good = std::fs::read(&ts_path).unwrap();
        let (kind, payload) = decode_segment(&good).unwrap();
        assert_eq!(kind, KIND_TRANSITION_SYSTEM);

        // A well-framed, correctly checksummed version-3 segment whose
        // last move names command 7 of a two-command program.
        let mut bad = payload.to_vec();
        let at = bad.len() - 4;
        bad[at..].copy_from_slice(&7u32.to_le_bytes());
        // The same bytes stamped as version 2, the dense-table format.
        let mut v2 = good.clone();
        v2[SEGMENT_MAGIC.len()..SEGMENT_MAGIC.len() + 2].copy_from_slice(&2u16.to_le_bytes());
        for (what, bytes) in [
            (
                "malformed move row",
                encode_segment(KIND_TRANSITION_SYSTEM, &bad),
            ),
            ("version 2", v2),
        ] {
            std::fs::write(&ts_path, &bytes).unwrap();
            store.drop_memory_cache();
            let loaded = store.load(&hash, program, &cfg);
            assert!(loaded.ts[0].is_none(), "{what}");
            assert!(loaded.pred[0].is_none(), "{what}");
        }
        // The intact segment still decodes.
        std::fs::write(&ts_path, &good).unwrap();
        store.drop_memory_cache();
        assert!(store.load(&hash, program, &cfg).ts[0].is_some());
    }

    #[test]
    fn certificates_round_trip_and_merge() {
        let store = tmp_store("certs");
        let key = |program: &str, prop: &str| CertKey {
            program: program.into(),
            property: prop.into(),
            universe: unity_ag::cert::UNIVERSE_INDUCTIVE,
        };
        let h1 = "a".repeat(32);
        let h2 = "b".repeat(32);
        let mut fresh = CertStore::new();
        fresh.insert(key(&h1, "invariant x <= 3 | x : int 0..3"), true);
        fresh.insert(key(&h1, "stable x == 3 | x : int 0..3"), false);
        fresh.insert(key(&h2, "invariant y <= 1 | y : int 0..1"), true);
        store.save_certs(&fresh).unwrap();

        // Duplicate hashes in the request are deduplicated, not re-read.
        let loaded = store.load_certs(&[h1.clone(), h2.clone(), h1.clone()]);
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded.dirty_len(), 0, "loaded facts seed, not dirty");
        assert_eq!(
            loaded.get(&key(&h1, "stable x == 3 | x : int 0..3")),
            Some(false)
        );

        // A later run adds facts about h1 without clobbering the first.
        let mut more = CertStore::new();
        more.insert(key(&h1, "transient x == 0 | x : int 0..3"), true);
        store.save_certs(&more).unwrap();
        let merged = store.load_certs(std::slice::from_ref(&h1));
        assert_eq!(merged.len(), 3);
        assert_eq!(
            merged.get(&key(&h1, "invariant x <= 3 | x : int 0..3")),
            Some(true)
        );
        assert_eq!(
            merged.get(&key(&h1, "transient x == 0 | x : int 0..3")),
            Some(true)
        );
    }

    #[test]
    fn corrupt_cert_segments_are_misses() {
        let store = tmp_store("corrupt_certs");
        let h = "c".repeat(32);
        let mut fresh = CertStore::new();
        fresh.insert(
            CertKey {
                program: h.clone(),
                property: "invariant x <= 3 | x : int 0..3".into(),
                universe: unity_ag::cert::UNIVERSE_INDUCTIVE,
            },
            true,
        );
        store.save_certs(&fresh).unwrap();
        let path = store.program_dir(&h).join("certs.seg");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load_certs(std::slice::from_ref(&h)).is_empty());
    }
}
