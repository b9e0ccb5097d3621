//! `server_sessions`: client threads run whole sessions against one
//! `SortServer` in a closed loop.

use crate::inputs::{self, part, seed_for, uniform, zipf, Part};
use crate::layers::{timed, Layers};
use crate::verify::sorted_output_ok;
use crate::{Measured, RunConfig, Sizes, CLIENTS};
use dtsort::{SpillCompression, SpillIoMode, StreamConfig};
use server::{AdmissionPolicy, GovernorConfig, ServerConfig, SortServer, SpillManagerConfig};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use stream::SumAgg;

/// Sessions cycle through three distributions, and every fourth is a
/// group-by, so the mix repeats every 12 sessions.
pub const MIX: usize = 12;

enum Input {
    Sort(Part<u32>),
    Group {
        part: Part<u64>,
        /// Per-key sums, computed at set-up.
        sums: Vec<(u32, u64)>,
    },
}

impl Input {
    fn records(&self) -> u64 {
        match self {
            Input::Sort(p) => p.recs.len() as u64,
            Input::Group { part, .. } => part.recs.len() as u64,
        }
    }
}

/// A server and the spill root it owns; the root is removed on drop.
pub struct Host {
    server: SortServer,
    root: PathBuf,
}

impl Host {
    /// Entries left under the spill root once every session has ended:
    /// each is a session directory that leaked.
    fn leaked(&self) -> u64 {
        std::fs::read_dir(&self.root).map_or(1, |d| d.count() as u64)
    }
}

impl Drop for Host {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

pub struct Sessions {
    pool: Vec<Input>,
    request: usize,
    batch: usize,
    spill_root: PathBuf,
}

/// Reusable output buffers of one client.
#[derive(Default)]
struct Outs {
    sorted: Vec<(u32, u32)>,
    grouped: Vec<(u32, u64)>,
}

/// What one measured window (or one client of it) produced.
#[derive(Default)]
struct Window {
    lat: Vec<f64>,
    /// (seconds since the window opened, records) of each completed
    /// session.
    done: Vec<(f64, u64)>,
    attempted: u64,
    failed: u64,
    layers: Layers,
}

static NEXT_HOST: AtomicUsize = AtomicUsize::new(0);

impl Sessions {
    pub fn new(sizes: &Sizes, seed: u64, spill_root: &Path) -> Self {
        let dists = [uniform(1_000_000_000), zipf(1.2), uniform(100)];
        let n = sizes.session_records;
        let pool = (0..sizes.session_pool)
            .map(|i| {
                let (dist, seed) = (&dists[i % dists.len()], seed_for(seed, i));
                if i % 4 == 3 {
                    let part: Part<u64> = part(dist, n, seed, 0);
                    let mut sums = BTreeMap::<u32, u64>::new();
                    for &(k, v) in &part.recs {
                        *sums.entry(k).or_default() += v;
                    }
                    let sums = sums.into_iter().collect();
                    Input::Group { part, sums }
                } else {
                    Input::Sort(part(dist, n, seed, 0))
                }
            })
            .collect();
        Self {
            pool,
            request: n * std::mem::size_of::<(u32, u32)>(),
            batch: sizes.session_batch,
            spill_root: spill_root.to_path_buf(),
        }
    }

    /// A fresh server: batched I/O and compressed spills for every session,
    /// and a global budget of 1.5 session requests, so nearly every
    /// admission reclaims memory from the other client's session.
    pub fn host(&self) -> io::Result<Host> {
        let root = self.spill_root.join(format!(
            "server-{}",
            NEXT_HOST.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&root)?;
        let server = SortServer::new(ServerConfig {
            governor: GovernorConfig {
                global_budget_bytes: self.request * 3 / 2,
                session_floor_bytes: self.request / 4,
                admission: AdmissionPolicy::Queue,
            },
            spill: SpillManagerConfig {
                root: Some(root.clone()),
                quota_bytes: u64::MAX,
            },
            base: StreamConfig {
                spill_io: SpillIoMode::Batched,
                spill_compression: SpillCompression::DeltaLz,
                ..StreamConfig::default()
            },
        })?;
        Ok(Host { server, root })
    }

    /// Runs one session of the mix from open to drained and dropped;
    /// returns its latency in seconds and whether its output verified.
    fn session(
        &self,
        server: &SortServer,
        tenant: &str,
        input: &Input,
        layers: &mut Layers,
        outs: &mut Outs,
    ) -> (f64, bool) {
        let _span = obs::span!("bench.session");
        let start = Instant::now();
        let result = match input {
            Input::Sort(p) => self.sort_session(server, tenant, p, layers, &mut outs.sorted),
            Input::Group { part, .. } => {
                self.group_session(server, tenant, part, layers, &mut outs.grouped)
            }
        };
        let lat = start.elapsed().as_secs_f64();
        let ok = match (result, input) {
            (Err(e), _) => {
                eprintln!("server_sessions session failed: {e}");
                false
            }
            (Ok(()), Input::Sort(p)) => sorted_output_ok(&outs.sorted, p.sum, true),
            (Ok(()), Input::Group { sums, .. }) => outs.grouped == *sums,
        };
        (lat, ok)
    }

    fn sort_session(
        &self,
        server: &SortServer,
        tenant: &str,
        p: &Part<u32>,
        layers: &mut Layers,
        out: &mut Vec<(u32, u32)>,
    ) -> io::Result<()> {
        let mut s = timed(layers, "server.open_ms", || {
            server.open_sort::<u32, u32>(tenant, self.request)
        })?;
        for chunk in p.recs.chunks(self.batch) {
            timed(layers, "server.push_ms", || s.push(chunk))?;
        }
        let sorted = timed(layers, "server.finish_ms", || s.finish())?;
        timed(layers, "server.drain_ms", || {
            out.clear();
            out.extend(sorted);
        });
        Ok(())
    }

    fn group_session(
        &self,
        server: &SortServer,
        tenant: &str,
        p: &Part<u64>,
        layers: &mut Layers,
        out: &mut Vec<(u32, u64)>,
    ) -> io::Result<()> {
        let mut s = timed(layers, "server.open_ms", || {
            server.open_group::<u32, SumAgg>(tenant, SumAgg, self.request)
        })?;
        for chunk in p.recs.chunks(self.batch) {
            timed(layers, "server.push_ms", || s.push(chunk))?;
        }
        let grouped = timed(layers, "server.finish_ms", || s.finish())?;
        timed(layers, "server.drain_ms", || {
            out.clear();
            out.extend(grouped);
        });
        Ok(())
    }

    /// One pass over the whole mix on the calling thread (the warm-up op).
    pub fn warm_up(&self, host: &Host) -> bool {
        let mut outs = Outs::default();
        (0..MIX).all(|i| {
            let input = &self.pool[i % self.pool.len()];
            let tenant = "warm-up";
            self.session(
                &host.server,
                tenant,
                input,
                &mut Layers::default(),
                &mut outs,
            )
            .1
        })
    }

    /// [`CLIENTS`] closed-loop clients share one session counter until the
    /// deadline; a session started before it runs to completion.
    fn window(&self, server: &SortServer, seconds: f64) -> Window {
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let clients: Vec<Window> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let next = &next;
                    scope.spawn(move || {
                        let tenant = format!("client-{c}");
                        let mut outs = Outs::default();
                        let mut w = Window::default();
                        while Instant::now() < deadline {
                            let input =
                                &self.pool[next.fetch_add(1, Ordering::Relaxed) % self.pool.len()];
                            let (lat, ok) =
                                self.session(server, &tenant, input, &mut w.layers, &mut outs);
                            w.lat.push(lat);
                            w.done
                                .push((start.elapsed().as_secs_f64(), input.records()));
                            w.attempted += 1;
                            w.failed += u64::from(!ok);
                        }
                        w
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut all = Window::default();
        for w in clients {
            all.lat.extend(w.lat);
            all.done.extend(w.done);
            all.attempted += w.attempted;
            all.failed += w.failed;
            all.layers.merge(w.layers);
        }
        all
    }

    /// The measured phase.  Untraced: one window on the set-up server.
    /// Traced: four windows, each on a fresh server, alternating untraced
    /// and traced so both see the same drift; per-layer sums come from the
    /// traced windows.
    pub fn measure(&self, cfg: &RunConfig, first: Host) -> io::Result<Measured> {
        let windows = if cfg.trace { 4 } else { 1 };
        let seconds = cfg.seconds / windows as f64;
        let mut m = Measured::new();
        let mut first = Some(first);
        for w in 0..windows {
            let host = match first.take() {
                Some(h) => h,
                None => self.host()?,
            };
            let traced = cfg.trace && w % 2 == 1;
            if traced {
                obs::enable();
            }
            let mut win = self.window(&host.server, seconds);
            if traced {
                obs::disable();
            }
            win.failed += host.leaked().min(win.attempted - win.failed);
            drop(host);
            let wall = win.done.iter().map(|d| d.0).fold(0.0, f64::max);
            m.work[usize::from(traced)].add(win.done.iter().map(|d| d.1).sum(), wall);
            m.attempted += win.attempted;
            m.failed += win.failed;
            if traced {
                win.layers.ops = win.attempted;
                win.layers.records = win.done.iter().map(|d| d.1).sum();
                m.layers.merge(win.layers);
                m.traced_ops += win.attempted;
            } else {
                m.lat.extend(win.lat);
            }
        }
        m.after = obs::global().snapshot();
        if cfg.trace {
            let (mut w32, mut w64) = (Vec::new(), Vec::new());
            for input in &self.pool {
                m.reference_ok &= match input {
                    Input::Sort(p) => {
                        inputs::reference(std::slice::from_ref(p), &mut w32, &mut m.layers, true)
                    }
                    Input::Group { part, .. } => {
                        inputs::reference(std::slice::from_ref(part), &mut w64, &mut m.layers, true)
                    }
                };
            }
        }
        Ok(m)
    }
}
