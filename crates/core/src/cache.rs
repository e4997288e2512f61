//! The shared, sharded, memoized operating-point cache.
//!
//! Solving one `(scheme, BER, temperature)` operating point runs the full
//! photonic pipeline, and a fleet of ONIs asks for the same points over and
//! over.  [`SharedOpCache`] memoizes those solves behind a handle that
//! every link, manager and simulation shard of a fleet clones cheaply
//! (`Arc` inside) and queries concurrently; the key carries the thermal
//! stack's fingerprint, so links with different stacks share one cache
//! without aliasing:
//!
//! * **Sharded by fingerprint** — the key space is split across
//!   [`SHARD_COUNT`] independent shards, each behind its own lock, selected
//!   by [`OpCacheKey::fingerprint`].  Threads solving different temperature
//!   buckets never contend on one global mutex.
//! * **Solve-once semantics** — a key is solved by exactly one thread; every
//!   concurrent requester of the same key blocks on the shard's condvar and
//!   is answered from the freshly-filled entry.  The aggregate hit/miss
//!   counters are therefore *deterministic*: for a fixed query multiset,
//!   `misses` equals the number of distinct keys touched and `hits` the
//!   remainder, at any thread count and interleaving — bit-identical to a
//!   serial first-touch walk.
//! * **Persistent snapshots** — [`SharedOpCache::to_json`] serializes every
//!   completed entry (operating points *and* memoized infeasibilities)
//!   through the `onoc-telemetry` JSON kernel, in sorted key order so the
//!   artifact is byte-deterministic; [`SharedOpCache::load`] warm-starts a
//!   later run so repeated CLI sweeps and CI figure regeneration invoke the
//!   photonic solver zero times.
//!
//! Shard maps are `BTreeMap`s, not hash maps: snapshot serialization and
//! entry counting iterate them, and iteration on the deterministic path must
//! be ordered (`onoc-lint` rule D001).  All locking uses poison-recovery
//! (`unwrap_or_else(PoisonError::into_inner)`): every entry is written
//! atomically under the lock, so a panicking peer cannot leave a shard map
//! half-updated (rule D004 — no `expect` on lock acquisition).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use onoc_ecc_codes::EccScheme;
use onoc_interface::{ChannelPowerBreakdown, CommunicationTiming};
use onoc_photonics::power::{LaserOperatingPoint, SolveError};
use onoc_photonics::thermal::ThermalSummary;
use onoc_telemetry::Json;
use onoc_thermal::ResonanceDrift;
use onoc_units::{Celsius, Microwatts, Milliwatts, Nanoseconds, PicojoulesPerBit};

use crate::link::{CacheCounters, LinkError, OperatingPoint};

/// Default temperature resolution of the cache, in buckets per kelvin
/// (0.05 K buckets).
pub const DEFAULT_BUCKETS_PER_KELVIN: f64 = 20.0;

/// Number of independently-locked shards of the key space.
pub const SHARD_COUNT: usize = 16;

/// Version tag of the snapshot JSON schema.
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 1;

/// The memoization key of one operating-point query: scheme, target-BER
/// bits, temperature bucket and the thermal stack's ring-state fingerprint.
///
/// The temperature is quantized to the owning cache's bucket grid so the
/// microkelvin jitter of a thermal simulation cannot defeat the memo; the
/// stack fingerprint ([`crate::ThermalLinkStack::fingerprint`]) keeps
/// entries solved under one chip instance from ever aliasing another even
/// though heterogeneous fleets may share the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct OpCacheKey {
    /// Coding scheme of the query.
    pub scheme: EccScheme,
    /// `f64::to_bits` of the target decoded BER.
    pub ber_bits: u64,
    /// Temperature bucket index on the cache's grid.
    pub bucket: i64,
    /// [`crate::ThermalLinkStack::fingerprint`] of the stack the query is
    /// solved under.
    pub stack_fingerprint: u64,
}

impl OpCacheKey {
    /// Mixes **every** field of the key into one 64-bit fingerprint — the
    /// value shard selection hashes on.  A field left out of this mix would
    /// still be covered by the full `Ord` comparison inside the shard map,
    /// but the lint contract (D003) keeps the mix and the struct in lock
    /// step anyway: un-hashed fields are how cache aliasing bugs start.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut hash = onoc_thermal::bank::fnv1a_seed();
        hash = onoc_thermal::bank::fnv1a_u64(hash, scheme_ordinal(self.scheme));
        hash = onoc_thermal::bank::fnv1a_u64(hash, self.ber_bits);
        hash = onoc_thermal::bank::fnv1a_u64(hash, self.bucket as u64);
        hash = onoc_thermal::bank::fnv1a_u64(hash, self.stack_fingerprint);
        onoc_thermal::bank::splitmix64_mix(hash)
    }

    /// The shard this key lives in, for `shard_count` shards.
    #[must_use]
    fn shard_index(&self, shard_count: usize) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        let index = (self.fingerprint() % shard_count as u64) as usize;
        index
    }
}

/// Stable ordinal of a scheme for hashing (independent of `label()` text).
fn scheme_ordinal(scheme: EccScheme) -> u64 {
    EccScheme::all()
        .iter()
        .position(|&s| s == scheme)
        .map_or(u64::MAX, |i| i as u64)
}

/// One memo slot: either a completed result or a claim by the thread
/// currently solving it.
#[derive(Debug, Clone)]
enum Slot {
    /// A thread has claimed the key and is running the solver; waiters block
    /// on the shard condvar until the claim resolves.
    InFlight,
    /// The memoized outcome (feasible point or cached infeasibility),
    /// boxed so the in-flight claim stays pointer-sized.
    Done(Box<Result<OperatingPoint, LinkError>>),
}

#[derive(Debug, Default)]
struct Shard {
    map: Mutex<BTreeMap<OpCacheKey, Slot>>,
    filled: Condvar,
}

/// Locks one shard map, recovering from poisoning: entries are written
/// atomically under the lock, so a panicking peer cannot leave the map in a
/// half-written state — the data stays valid and the cache keeps serving.
fn lock_shard(shard: &Shard) -> MutexGuard<'_, BTreeMap<OpCacheKey, Slot>> {
    shard.map.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Clears a pending [`Slot::InFlight`] claim if the solver unwinds, so
/// waiters blocked on the condvar retry (and re-claim) instead of
/// deadlocking on a claim that will never resolve.
struct InFlightGuard<'a> {
    shard: &'a Shard,
    key: OpCacheKey,
    armed: bool,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut map = lock_shard(self.shard);
        if matches!(map.get(&self.key), Some(Slot::InFlight)) {
            map.remove(&self.key);
        }
        drop(map);
        self.shard.filled.notify_all();
    }
}

#[derive(Debug)]
struct CacheInner {
    buckets_per_kelvin: f64,
    shards: Vec<Shard>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Whether the completed-entry set has changed since the cache was
    /// built, loaded or last saved — the signal that lets sweep campaigns
    /// skip rewriting an unchanged snapshot.
    dirty: AtomicBool,
}

/// A cheaply-clonable handle on one shared operating-point cache.
///
/// Cloning the handle shares the underlying storage and counters.
#[derive(Debug, Clone)]
pub struct SharedOpCache {
    inner: Arc<CacheInner>,
}

impl Default for SharedOpCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedOpCache {
    /// An empty cache at the default resolution
    /// ([`DEFAULT_BUCKETS_PER_KELVIN`]).
    #[must_use]
    pub fn new() -> Self {
        Self::new_with(DEFAULT_BUCKETS_PER_KELVIN)
    }

    /// An empty cache at `buckets_per_kelvin` resolution.
    ///
    /// # Errors
    ///
    /// [`LinkError::InvalidConfiguration`] when the resolution is zero,
    /// negative or not finite — a non-positive resolution would snap every
    /// temperature onto one bucket (or divide by zero).
    pub fn with_resolution(buckets_per_kelvin: f64) -> Result<Self, LinkError> {
        if !(buckets_per_kelvin > 0.0 && buckets_per_kelvin.is_finite()) {
            return Err(LinkError::InvalidConfiguration {
                reason: format!(
                    "cache resolution must be positive and finite, got {buckets_per_kelvin} \
                     buckets per kelvin"
                ),
            });
        }
        Ok(Self::new_with(buckets_per_kelvin))
    }

    /// Internal constructor over a pre-validated resolution.
    ///
    /// # Panics
    ///
    /// Panics if `buckets_per_kelvin` is not positive and finite (public
    /// entry points validate first).
    fn new_with(buckets_per_kelvin: f64) -> Self {
        assert!(
            buckets_per_kelvin > 0.0 && buckets_per_kelvin.is_finite(),
            "cache resolution must be positive and finite"
        );
        Self {
            inner: Arc::new(CacheInner {
                buckets_per_kelvin,
                shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect(),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                dirty: AtomicBool::new(false),
            }),
        }
    }

    /// Whether two handles share the same underlying storage.
    #[must_use]
    pub fn ptr_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Temperature resolution, in buckets per kelvin.
    #[must_use]
    pub fn buckets_per_kelvin(&self) -> f64 {
        self.inner.buckets_per_kelvin
    }

    /// Bucket index of `temperature` on this cache's grid.
    #[must_use]
    pub fn bucket(&self, temperature: Celsius) -> i64 {
        #[allow(clippy::cast_possible_truncation)]
        let bucket = (temperature.value() * self.inner.buckets_per_kelvin).round() as i64;
        bucket
    }

    /// Representative temperature of the bucket containing `temperature`.
    /// Exact (no rounding noise) whenever the input sits on a bucket centre.
    #[must_use]
    pub fn snap(&self, temperature: Celsius) -> Celsius {
        #[allow(clippy::cast_precision_loss)]
        let centre = self.bucket(temperature) as f64 / self.inner.buckets_per_kelvin;
        Celsius::new(centre)
    }

    /// Answers `key` from the cache, or claims it and runs `solve` exactly
    /// once fleet-wide.  Returns the memoized result and whether this call
    /// was a hit.
    ///
    /// Concurrent callers of the same key block until the claimant's solve
    /// resolves and are counted as hits — so for a fixed query multiset the
    /// counters are deterministic at any thread count: one miss per distinct
    /// key, everything else a hit.  If the claimant's `solve` panics, its
    /// claim is withdrawn and one of the waiters re-claims the key.
    pub fn get_or_solve<F>(
        &self,
        key: OpCacheKey,
        solve: F,
    ) -> (Result<OperatingPoint, LinkError>, bool)
    where
        F: FnOnce() -> Result<OperatingPoint, LinkError>,
    {
        let shard = &self.inner.shards[key.shard_index(self.inner.shards.len())];
        let mut map = lock_shard(shard);
        loop {
            match map.get(&key) {
                Some(Slot::Done(value)) => {
                    let value = value.as_ref().clone();
                    drop(map);
                    self.inner.hits.fetch_add(1, Ordering::Relaxed);
                    return (value, true);
                }
                Some(Slot::InFlight) => {
                    map = shard
                        .filled
                        .wait(map)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                None => break,
            }
        }
        map.insert(key, Slot::InFlight);
        drop(map);
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        let mut guard = InFlightGuard {
            shard,
            key,
            armed: true,
        };
        let solved = solve();
        let mut map = lock_shard(shard);
        map.insert(key, Slot::Done(Box::new(solved.clone())));
        self.inner.dirty.store(true, Ordering::Relaxed);
        guard.armed = false;
        drop(map);
        shard.filled.notify_all();
        (solved, false)
    }

    /// Aggregate hit/miss/entry counters of the whole cache.  `entries`
    /// counts completed results only (in-flight claims are transient).
    #[must_use]
    pub fn counters(&self) -> CacheCounters {
        let entries = self
            .inner
            .shards
            .iter()
            .map(|shard| {
                lock_shard(shard)
                    .values()
                    .filter(|slot| matches!(slot, Slot::Done(_)))
                    .count()
            })
            .sum();
        CacheCounters {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            entries,
        }
    }

    /// Whether the completed-entry set has changed since the cache was
    /// built, loaded from a snapshot, or last [`SharedOpCache::save`]d.  A
    /// clean cache's snapshot is already on disk byte-for-byte, so callers
    /// persisting between sweep runs can skip the rewrite.
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        self.inner.dirty.load(Ordering::Relaxed)
    }

    /// Every completed entry, in key order (deterministic across shard
    /// layouts and fill interleavings).
    fn sorted_entries(&self) -> BTreeMap<OpCacheKey, Result<OperatingPoint, LinkError>> {
        let mut entries = BTreeMap::new();
        for shard in &self.inner.shards {
            for (key, slot) in lock_shard(shard).iter() {
                if let Slot::Done(value) = slot {
                    entries.insert(*key, value.as_ref().clone());
                }
            }
        }
        entries
    }

    /// Serializes the cache (resolution + every completed entry, sorted by
    /// key) as a JSON document.  Counters are *not* part of the snapshot:
    /// they describe one run's traffic, not the memo itself.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let entries: Vec<Json> = self
            .sorted_entries()
            .iter()
            .map(|(key, value)| {
                let mut fields = vec![
                    ("scheme", Json::from(key.scheme.label())),
                    ("ber_bits", hex_json(key.ber_bits)),
                    ("bucket", i64_json(key.bucket)),
                    ("stack_fingerprint", hex_json(key.stack_fingerprint)),
                ];
                match value {
                    Ok(point) => fields.push(("point", operating_point_to_json(point))),
                    Err(error) => fields.push(("error", link_error_to_json(error))),
                }
                Json::obj(fields)
            })
            .collect();
        Json::obj(vec![
            ("schema_version", SNAPSHOT_SCHEMA_VERSION.into()),
            ("kind", "onoc-op-cache-snapshot".into()),
            (
                "buckets_per_kelvin",
                Json::Num(self.inner.buckets_per_kelvin),
            ),
            ("entries", Json::Arr(entries)),
        ])
    }

    /// Rebuilds a cache from a [`SharedOpCache::to_json`] document.  The
    /// rebuilt cache starts with zeroed counters and every snapshot entry
    /// completed, so a warm-started run reports pure hits.
    ///
    /// # Errors
    ///
    /// [`LinkError::InvalidConfiguration`] when the document does not match
    /// the snapshot schema.
    pub fn from_json(document: &Json) -> Result<Self, LinkError> {
        let invalid = |reason: String| LinkError::InvalidConfiguration {
            reason: format!("cache snapshot: {reason}"),
        };
        let version = document
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or_else(|| invalid("missing schema_version".into()))?;
        if version != SNAPSHOT_SCHEMA_VERSION {
            return Err(invalid(format!(
                "schema_version {version} (this build reads {SNAPSHOT_SCHEMA_VERSION})"
            )));
        }
        let buckets = document
            .get("buckets_per_kelvin")
            .and_then(Json::as_f64)
            .ok_or_else(|| invalid("missing buckets_per_kelvin".into()))?;
        let cache = Self::with_resolution(buckets)?;
        let entries = document
            .get("entries")
            .and_then(Json::as_array)
            .ok_or_else(|| invalid("missing entries array".into()))?;
        for entry in entries {
            let key = OpCacheKey {
                scheme: scheme_from_json(entry.get("scheme")).map_err(&invalid)?,
                ber_bits: hex_from_json(entry.get("ber_bits"), "ber_bits").map_err(&invalid)?,
                bucket: i64_from_json(entry.get("bucket"), "bucket").map_err(&invalid)?,
                stack_fingerprint: hex_from_json(
                    entry.get("stack_fingerprint"),
                    "stack_fingerprint",
                )
                .map_err(&invalid)?,
            };
            let value = if let Some(point) = entry.get("point") {
                Ok(operating_point_from_json(point).map_err(&invalid)?)
            } else if let Some(error) = entry.get("error") {
                Err(link_error_from_json(error).map_err(&invalid)?)
            } else {
                return Err(invalid("entry carries neither point nor error".into()));
            };
            let shard = &cache.inner.shards[key.shard_index(cache.inner.shards.len())];
            lock_shard(shard).insert(key, Slot::Done(Box::new(value)));
        }
        Ok(cache)
    }

    /// Writes the snapshot to `path` (pretty-rendered JSON, trailing
    /// newline).  The bytes are deterministic for a given set of entries.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        // Clear the flag *before* serializing: an entry that lands while the
        // snapshot renders may miss the file, but it re-dirties the cache so
        // the next save picks it up (clearing after would lose it).
        self.inner.dirty.store(false, Ordering::Relaxed);
        let rendered = self.to_json().render_pretty();
        let result = std::fs::write(path, rendered);
        if result.is_err() {
            self.inner.dirty.store(true, Ordering::Relaxed);
        }
        result
    }

    /// Reads a snapshot written by [`SharedOpCache::save`].
    ///
    /// # Errors
    ///
    /// [`LinkError::InvalidConfiguration`] when the file cannot be read or
    /// does not parse as a snapshot.
    pub fn load(path: &Path) -> Result<Self, LinkError> {
        let body = std::fs::read_to_string(path).map_err(|e| LinkError::InvalidConfiguration {
            reason: format!("cache snapshot {}: {e}", path.display()),
        })?;
        let document = Json::parse(&body).map_err(|e| LinkError::InvalidConfiguration {
            reason: format!("cache snapshot {}: {e}", path.display()),
        })?;
        Self::from_json(&document)
    }
}

// ---------------------------------------------------------------------------
// Snapshot component serializers.
//
// No serde is available offline, so the operating-point tree is written
// and read by hand through the telemetry JSON kernel.  Two representation
// rules keep the round trip exact:
//
// * every `f64` goes through `Json::Num`, whose writer emits the shortest
//   representation that parses back bit-identically (finite values);
// * full-range `u64`s (BER bits, fingerprints) are hex *strings* — a JSON
//   number is an `f64` and only exact up to 2^53.
// ---------------------------------------------------------------------------

fn hex_json(value: u64) -> Json {
    Json::from(format!("{value:#018x}"))
}

#[allow(clippy::cast_precision_loss)]
fn i64_json(value: i64) -> Json {
    // Bucket indices and barrel shifts are tiny (|x| < 2^20); the cast is
    // exact by construction.
    Json::Num(value as f64)
}

fn usize_json(value: usize) -> Json {
    Json::from(value)
}

fn hex_from_json(value: Option<&Json>, field: &str) -> Result<u64, String> {
    let text = value
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing hex field `{field}`"))?;
    let digits = text
        .strip_prefix("0x")
        .ok_or_else(|| format!("field `{field}` is not 0x-prefixed hex: {text:?}"))?;
    u64::from_str_radix(digits, 16).map_err(|e| format!("field `{field}`: {e}"))
}

fn f64_from_json(value: Option<&Json>, field: &str) -> Result<f64, String> {
    value
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number field `{field}`"))
}

#[allow(clippy::cast_possible_truncation)]
fn i64_from_json(value: Option<&Json>, field: &str) -> Result<i64, String> {
    f64_from_json(value, field).map(|v| v as i64)
}

#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn usize_from_json(value: Option<&Json>, field: &str) -> Result<usize, String> {
    f64_from_json(value, field).map(|v| v as usize)
}

fn scheme_from_json(value: Option<&Json>) -> Result<EccScheme, String> {
    let label = value
        .and_then(Json::as_str)
        .ok_or_else(|| "missing scheme label".to_owned())?;
    EccScheme::all()
        .into_iter()
        .find(|s| s.label() == label)
        .ok_or_else(|| format!("unknown scheme label {label:?}"))
}

fn laser_to_json(laser: &LaserOperatingPoint) -> Json {
    Json::obj(vec![
        ("scheme", Json::from(laser.scheme.label())),
        ("target_ber", Json::Num(laser.target_ber)),
        ("raw_ber", Json::Num(laser.raw_ber)),
        ("snr", Json::Num(laser.snr)),
        ("crosstalk_uw", Json::Num(laser.crosstalk.value())),
        ("required_swing_uw", Json::Num(laser.required_swing.value())),
        (
            "laser_output_power_uw",
            Json::Num(laser.laser_output_power.value()),
        ),
        (
            "laser_electrical_power_mw",
            Json::Num(laser.laser_electrical_power.value()),
        ),
        ("laser_efficiency", Json::Num(laser.laser_efficiency)),
    ])
}

fn laser_from_json(value: &Json) -> Result<LaserOperatingPoint, String> {
    Ok(LaserOperatingPoint {
        scheme: scheme_from_json(value.get("scheme"))?,
        target_ber: f64_from_json(value.get("target_ber"), "target_ber")?,
        raw_ber: f64_from_json(value.get("raw_ber"), "raw_ber")?,
        snr: f64_from_json(value.get("snr"), "snr")?,
        crosstalk: Microwatts::new(f64_from_json(value.get("crosstalk_uw"), "crosstalk_uw")?),
        required_swing: Microwatts::new(f64_from_json(
            value.get("required_swing_uw"),
            "required_swing_uw",
        )?),
        laser_output_power: Microwatts::new(f64_from_json(
            value.get("laser_output_power_uw"),
            "laser_output_power_uw",
        )?),
        laser_electrical_power: Milliwatts::new(f64_from_json(
            value.get("laser_electrical_power_mw"),
            "laser_electrical_power_mw",
        )?),
        laser_efficiency: f64_from_json(value.get("laser_efficiency"), "laser_efficiency")?,
    })
}

fn power_to_json(power: &ChannelPowerBreakdown) -> Json {
    Json::obj(vec![
        ("scheme", Json::from(power.scheme.label())),
        (
            "encoder_decoder_mw",
            Json::Num(power.encoder_decoder.value()),
        ),
        ("modulation_mw", Json::Num(power.modulation.value())),
        ("laser_mw", Json::Num(power.laser.value())),
        ("tuning_mw", Json::Num(power.tuning.value())),
    ])
}

fn power_from_json(value: &Json) -> Result<ChannelPowerBreakdown, String> {
    Ok(ChannelPowerBreakdown {
        scheme: scheme_from_json(value.get("scheme"))?,
        encoder_decoder: Milliwatts::new(f64_from_json(
            value.get("encoder_decoder_mw"),
            "encoder_decoder_mw",
        )?),
        modulation: Milliwatts::new(f64_from_json(value.get("modulation_mw"), "modulation_mw")?),
        laser: Milliwatts::new(f64_from_json(value.get("laser_mw"), "laser_mw")?),
        tuning: Milliwatts::new(f64_from_json(value.get("tuning_mw"), "tuning_mw")?),
    })
}

fn timing_to_json(timing: &CommunicationTiming) -> Json {
    Json::obj(vec![
        ("scheme", Json::from(timing.scheme.label())),
        (
            "communication_time_factor",
            Json::Num(timing.communication_time_factor),
        ),
        ("bits_per_lane", Json::Num(timing.bits_per_lane)),
        (
            "serialization_time_ns",
            Json::Num(timing.serialization_time.value()),
        ),
        ("codec_latency_ns", Json::Num(timing.codec_latency.value())),
        ("total_latency_ns", Json::Num(timing.total_latency.value())),
    ])
}

fn timing_from_json(value: &Json) -> Result<CommunicationTiming, String> {
    Ok(CommunicationTiming {
        scheme: scheme_from_json(value.get("scheme"))?,
        communication_time_factor: f64_from_json(
            value.get("communication_time_factor"),
            "communication_time_factor",
        )?,
        bits_per_lane: f64_from_json(value.get("bits_per_lane"), "bits_per_lane")?,
        serialization_time: Nanoseconds::new(f64_from_json(
            value.get("serialization_time_ns"),
            "serialization_time_ns",
        )?),
        codec_latency: Nanoseconds::new(f64_from_json(
            value.get("codec_latency_ns"),
            "codec_latency_ns",
        )?),
        total_latency: Nanoseconds::new(f64_from_json(
            value.get("total_latency_ns"),
            "total_latency_ns",
        )?),
    })
}

fn thermal_to_json(thermal: &ThermalSummary) -> Json {
    Json::obj(vec![
        ("temperature_c", Json::Num(thermal.temperature.value())),
        ("free_drift_nm", Json::Num(thermal.free_drift.nanometers())),
        (
            "residual_drift_nm",
            Json::Num(thermal.residual_drift.nanometers()),
        ),
        (
            "tuning_power_per_ring_uw",
            Json::Num(thermal.tuning_power_per_ring.value()),
        ),
        ("rings_per_lane", usize_json(thermal.rings_per_lane)),
        (
            "tuning_power_per_lane_mw",
            Json::Num(thermal.tuning_power_per_lane.value()),
        ),
        ("barrel_shift", i64_json(thermal.barrel_shift)),
        ("worst_lane", usize_json(thermal.worst_lane)),
    ])
}

fn thermal_from_json(value: &Json) -> Result<ThermalSummary, String> {
    Ok(ThermalSummary {
        temperature: Celsius::new(f64_from_json(value.get("temperature_c"), "temperature_c")?),
        free_drift: ResonanceDrift::new(f64_from_json(
            value.get("free_drift_nm"),
            "free_drift_nm",
        )?),
        residual_drift: ResonanceDrift::new(f64_from_json(
            value.get("residual_drift_nm"),
            "residual_drift_nm",
        )?),
        tuning_power_per_ring: Microwatts::new(f64_from_json(
            value.get("tuning_power_per_ring_uw"),
            "tuning_power_per_ring_uw",
        )?),
        rings_per_lane: usize_from_json(value.get("rings_per_lane"), "rings_per_lane")?,
        tuning_power_per_lane: Milliwatts::new(f64_from_json(
            value.get("tuning_power_per_lane_mw"),
            "tuning_power_per_lane_mw",
        )?),
        barrel_shift: i64_from_json(value.get("barrel_shift"), "barrel_shift")?,
        worst_lane: usize_from_json(value.get("worst_lane"), "worst_lane")?,
    })
}

fn operating_point_to_json(point: &OperatingPoint) -> Json {
    Json::obj(vec![
        ("laser", laser_to_json(&point.laser)),
        ("power", power_to_json(&point.power)),
        ("channel_power_mw", Json::Num(point.channel_power.value())),
        ("timing", timing_to_json(&point.timing)),
        ("energy_per_bit_pj", Json::Num(point.energy_per_bit.value())),
        ("thermal", thermal_to_json(&point.thermal)),
    ])
}

fn operating_point_from_json(value: &Json) -> Result<OperatingPoint, String> {
    Ok(OperatingPoint {
        laser: laser_from_json(
            value
                .get("laser")
                .ok_or_else(|| "missing laser section".to_owned())?,
        )?,
        power: power_from_json(
            value
                .get("power")
                .ok_or_else(|| "missing power section".to_owned())?,
        )?,
        channel_power: Milliwatts::new(f64_from_json(
            value.get("channel_power_mw"),
            "channel_power_mw",
        )?),
        timing: timing_from_json(
            value
                .get("timing")
                .ok_or_else(|| "missing timing section".to_owned())?,
        )?,
        energy_per_bit: PicojoulesPerBit::new(f64_from_json(
            value.get("energy_per_bit_pj"),
            "energy_per_bit_pj",
        )?),
        thermal: thermal_from_json(
            value
                .get("thermal")
                .ok_or_else(|| "missing thermal section".to_owned())?,
        )?,
    })
}

fn solve_error_to_json(error: &SolveError) -> Json {
    match error {
        SolveError::LaserPowerExceeded {
            scheme,
            target_ber,
            required_microwatts,
            maximum_microwatts,
        } => Json::obj(vec![
            ("kind", "laser_power_exceeded".into()),
            ("scheme", Json::from(scheme.label())),
            ("target_ber", Json::Num(*target_ber)),
            ("required_microwatts", Json::Num(*required_microwatts)),
            ("maximum_microwatts", Json::Num(*maximum_microwatts)),
        ]),
        SolveError::InvalidTarget { target_ber } => Json::obj(vec![
            ("kind", "invalid_target".into()),
            ("target_ber", Json::Num(*target_ber)),
        ]),
        SolveError::ThermalRunaway {
            scheme,
            target_ber,
            optical_microwatts,
        } => Json::obj(vec![
            ("kind", "thermal_runaway".into()),
            ("scheme", Json::from(scheme.label())),
            ("target_ber", Json::Num(*target_ber)),
            ("optical_microwatts", Json::Num(*optical_microwatts)),
        ]),
    }
}

fn solve_error_from_json(value: &Json) -> Result<SolveError, String> {
    match value.get("kind").and_then(Json::as_str) {
        Some("laser_power_exceeded") => Ok(SolveError::LaserPowerExceeded {
            scheme: scheme_from_json(value.get("scheme"))?,
            target_ber: f64_from_json(value.get("target_ber"), "target_ber")?,
            required_microwatts: f64_from_json(
                value.get("required_microwatts"),
                "required_microwatts",
            )?,
            maximum_microwatts: f64_from_json(
                value.get("maximum_microwatts"),
                "maximum_microwatts",
            )?,
        }),
        Some("invalid_target") => Ok(SolveError::InvalidTarget {
            target_ber: f64_from_json(value.get("target_ber"), "target_ber")?,
        }),
        Some("thermal_runaway") => Ok(SolveError::ThermalRunaway {
            scheme: scheme_from_json(value.get("scheme"))?,
            target_ber: f64_from_json(value.get("target_ber"), "target_ber")?,
            optical_microwatts: f64_from_json(
                value.get("optical_microwatts"),
                "optical_microwatts",
            )?,
        }),
        other => Err(format!("unknown solve-error kind {other:?}")),
    }
}

fn link_error_to_json(error: &LinkError) -> Json {
    match error {
        LinkError::Infeasible(solve) => Json::obj(vec![
            ("kind", "infeasible".into()),
            ("solve", solve_error_to_json(solve)),
        ]),
        LinkError::SchemeNotSustainable { scheme } => Json::obj(vec![
            ("kind", "scheme_not_sustainable".into()),
            ("scheme", Json::from(scheme.label())),
        ]),
        LinkError::InvalidConfiguration { reason } => Json::obj(vec![
            ("kind", "invalid_configuration".into()),
            ("reason", Json::from(reason.as_str())),
        ]),
    }
}

fn link_error_from_json(value: &Json) -> Result<LinkError, String> {
    match value.get("kind").and_then(Json::as_str) {
        Some("infeasible") => Ok(LinkError::Infeasible(solve_error_from_json(
            value
                .get("solve")
                .ok_or_else(|| "missing solve section".to_owned())?,
        )?)),
        Some("scheme_not_sustainable") => Ok(LinkError::SchemeNotSustainable {
            scheme: scheme_from_json(value.get("scheme"))?,
        }),
        Some("invalid_configuration") => Ok(LinkError::InvalidConfiguration {
            reason: value
                .get("reason")
                .and_then(Json::as_str)
                .ok_or_else(|| "missing reason".to_owned())?
                .to_owned(),
        }),
        other => Err(format!("unknown link-error kind {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::NanophotonicLink;

    fn key(scheme: EccScheme, bucket: i64) -> OpCacheKey {
        OpCacheKey {
            scheme,
            ber_bits: 1e-11f64.to_bits(),
            bucket,
            stack_fingerprint: 0xDEAD_BEEF_0BAD_CAFE,
        }
    }

    fn sample_point() -> OperatingPoint {
        NanophotonicLink::paper_link()
            .operating_point(EccScheme::Hamming7164, 1e-11)
            .unwrap()
    }

    #[test]
    fn fingerprint_depends_on_every_field() {
        let base = key(EccScheme::Hamming74, 500);
        let variants = [
            OpCacheKey {
                scheme: EccScheme::Uncoded,
                ..base
            },
            OpCacheKey {
                ber_bits: 1e-9f64.to_bits(),
                ..base
            },
            OpCacheKey {
                bucket: 501,
                ..base
            },
            OpCacheKey {
                stack_fingerprint: 1,
                ..base
            },
        ];
        for variant in variants {
            assert_ne!(variant.fingerprint(), base.fingerprint(), "{variant:?}");
        }
    }

    #[test]
    fn solve_once_counts_one_miss_per_distinct_key() {
        let cache = SharedOpCache::new();
        let point = sample_point();
        let keys: Vec<OpCacheKey> = (0..5).map(|b| key(EccScheme::Hamming74, b)).collect();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = cache.clone();
                let keys = keys.clone();
                scope.spawn(move || {
                    for k in keys {
                        let (result, _) = cache.get_or_solve(k, || Ok(point));
                        assert_eq!(result.unwrap(), point);
                    }
                });
            }
        });
        let counters = cache.counters();
        assert_eq!(counters.misses, 5, "exactly one solve per distinct key");
        assert_eq!(counters.hits, 8 * 5 - 5);
        assert_eq!(counters.entries, 5);
    }

    #[test]
    fn panicking_solver_releases_its_claim() {
        let cache = SharedOpCache::new();
        let k = key(EccScheme::Uncoded, 42);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_solve(k, || panic!("solver exploded"))
        }));
        assert!(result.is_err());
        // The claim is withdrawn: the next caller re-solves instead of
        // deadlocking on a forever-InFlight slot.
        let point = sample_point();
        let (value, hit) = cache.get_or_solve(k, || Ok(point));
        assert!(!hit);
        assert_eq!(value.unwrap(), point);
        assert_eq!(cache.counters().entries, 1);
    }

    #[test]
    fn clones_share_storage_and_fresh_caches_do_not() {
        let cache = SharedOpCache::new();
        let shared = cache.clone();
        assert!(cache.ptr_eq(&shared));
        let point = sample_point();
        let _ = cache.get_or_solve(key(EccScheme::Hamming74, 1), || Ok(point));
        assert_eq!(shared.counters().entries, 1);
        let fresh = SharedOpCache::new();
        assert!(!cache.ptr_eq(&fresh));
        assert_eq!(fresh.counters(), CacheCounters::default());
    }

    #[test]
    fn resolution_is_validated() {
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            assert!(SharedOpCache::with_resolution(bad).is_err(), "{bad}");
        }
        let coarse = SharedOpCache::with_resolution(1.0).unwrap();
        assert!((coarse.snap(Celsius::new(55.4)).value() - 55.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_round_trips_points_and_errors() {
        let link = NanophotonicLink::paper_link();
        let cache = SharedOpCache::new();
        // Populate with real solver outputs: feasible points at several
        // temperatures plus a memoized infeasibility.
        for (scheme, t) in [
            (EccScheme::Hamming7164, 25.0),
            (EccScheme::Hamming74, 55.0),
            (EccScheme::Uncoded, 45.0),
        ] {
            let k = OpCacheKey {
                scheme,
                ber_bits: 1e-11f64.to_bits(),
                bucket: cache.bucket(Celsius::new(t)),
                stack_fingerprint: link.stack_fingerprint(),
            };
            let (result, _) = cache.get_or_solve(k, || {
                link.operating_point_at(scheme, 1e-11, cache.snap(Celsius::new(t)))
            });
            assert!(result.is_ok());
        }
        let hot = OpCacheKey {
            scheme: EccScheme::Uncoded,
            ber_bits: 1e-11f64.to_bits(),
            bucket: cache.bucket(Celsius::new(85.0)),
            stack_fingerprint: link.stack_fingerprint(),
        };
        let (err, _) = cache.get_or_solve(hot, || {
            link.operating_point_at(EccScheme::Uncoded, 1e-11, Celsius::new(85.0))
        });
        assert!(err.is_err());

        let document = cache.to_json();
        let rendered = document.render_pretty();
        let reparsed = Json::parse(&rendered).unwrap();
        assert_eq!(reparsed, document, "snapshot survives render -> parse");
        let rebuilt = SharedOpCache::from_json(&reparsed).unwrap();
        assert_eq!(rebuilt.counters().entries, 4);
        assert_eq!(rebuilt.counters().hits, 0, "counters are not persisted");
        // Every original entry is answered as a pure hit, bit-identically.
        for (key, value) in cache.sorted_entries() {
            let (rebuilt_value, hit) =
                rebuilt.get_or_solve(key, || panic!("warm cache must not re-solve"));
            assert!(hit);
            assert_eq!(rebuilt_value, value);
        }
        // And the snapshot bytes themselves are deterministic.
        assert_eq!(rendered, rebuilt.to_json().render_pretty());
    }

    #[test]
    fn snapshot_file_round_trip_and_errors() {
        let dir = std::env::temp_dir();
        let path = dir.join("onoc_op_cache_snapshot_test.json");
        let link = NanophotonicLink::paper_link();
        let cache = SharedOpCache::new();
        let k = OpCacheKey {
            scheme: EccScheme::Hamming74,
            ber_bits: 1e-11f64.to_bits(),
            bucket: cache.bucket(Celsius::new(40.0)),
            stack_fingerprint: link.stack_fingerprint(),
        };
        let _ = cache.get_or_solve(k, || {
            link.operating_point_at(EccScheme::Hamming74, 1e-11, cache.snap(Celsius::new(40.0)))
        });
        cache.save(&path).unwrap();
        let loaded = SharedOpCache::load(&path).unwrap();
        assert_eq!(loaded.counters().entries, 1);
        std::fs::remove_file(&path).unwrap();
        assert!(
            SharedOpCache::load(&path).is_err(),
            "missing file is an error"
        );
        assert!(matches!(
            SharedOpCache::from_json(&Json::obj(vec![("schema_version", 99u64.into())])),
            Err(LinkError::InvalidConfiguration { .. })
        ));
    }

    #[test]
    fn dirty_flag_tracks_entry_set_changes_across_the_snapshot_lifecycle() {
        let point = sample_point();
        let cache = SharedOpCache::new();
        assert!(!cache.is_dirty(), "a fresh cache has nothing to persist");
        // A pure hit does not dirty; a miss-insert does.
        let _ = cache.get_or_solve(key(EccScheme::Hamming74, 1), || Ok(point));
        assert!(cache.is_dirty(), "a new entry must dirty the cache");
        let dir = std::env::temp_dir();
        let path = dir.join("onoc_op_cache_dirty_test.json");
        cache.save(&path).unwrap();
        assert!(!cache.is_dirty(), "saving writes the entry set out");
        let _ = cache.get_or_solve(key(EccScheme::Hamming74, 1), || Ok(point));
        assert!(
            !cache.is_dirty(),
            "answering from the cache adds nothing to persist"
        );
        // A warm-started cache is clean until it learns something new.
        let loaded = SharedOpCache::load(&path).unwrap();
        assert!(!loaded.is_dirty(), "a loaded snapshot is already on disk");
        let _ = loaded.get_or_solve(key(EccScheme::Hamming74, 1), || {
            panic!("warm cache must not re-solve")
        });
        assert!(!loaded.is_dirty());
        let _ = loaded.get_or_solve(key(EccScheme::Hamming74, 2), || Ok(point));
        assert!(loaded.is_dirty(), "a fresh solve must dirty the cache");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn thermal_runaway_errors_round_trip_through_snapshots() {
        let error = LinkError::Infeasible(SolveError::ThermalRunaway {
            scheme: EccScheme::Uncoded,
            target_ber: 1e-11,
            optical_microwatts: 612.5,
        });
        let rebuilt = link_error_from_json(&link_error_to_json(&error)).unwrap();
        assert_eq!(rebuilt, error);
    }
}
