//! `serve_mixed`: an in-process `hc_serve::Server` with a cell cache,
//! driven by two closed-loop clients through `hc_serve::client::submit`.
//! The only workload with HTTP parsing and streaming, a spec decode per
//! request, and cache writes (append, publish, singleflight join) beside
//! reads.

use crate::mix::ServeMix;
use crate::spans::{self, Tracer};
use crate::stats;
use crate::workload::{self, Layers, Outcome, Workload};
use hc_core::campaign::{CampaignReport, CampaignRunner, CampaignSpec};
use hc_core::{CacheStats, CellCache};
use hc_serve::{client, ServeError, ServeOptions, Server};
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Concurrent clients (and so concurrent connections).
pub const CLIENTS: usize = 2;

struct Running {
    addr: String,
    cache: Arc<CellCache>,
    handle: JoinHandle<Result<(), ServeError>>,
}

pub struct ServeMixed {
    spec_texts: Vec<String>,
    /// Each spec's offline report, and its bytes.
    reports: Vec<CampaignReport>,
    references: Vec<String>,
    /// Entries of the template cache.
    template_entries: u64,
    /// Cells the round appends to the template cache.
    appends: u64,
    dir: PathBuf,
    rounds: usize,
    server: Option<Running>,
}

/// One submission as the client saw it.
struct Request {
    ok: bool,
    start: Instant,
    accepted: Option<Instant>,
    last_frame: Option<Instant>,
    end: Instant,
    frames: u64,
}

impl ServeMixed {
    /// Generate the round, compute each spec's offline report, fill the
    /// template cache, and stand the daemon up over a restored copy.
    pub fn setup(seed: u64, dir: PathBuf) -> ServeMixed {
        // Each request runs on one thread; the two clients keep two busy.
        rayon::set_thread_cap(1);
        let mix = ServeMix::generate(seed);
        let spec_texts = mix.specs.iter().map(CampaignSpec::to_json).collect();
        let reports: Vec<CampaignReport> = mix
            .specs
            .iter()
            .map(|spec| {
                let report = CampaignRunner::new().with_batch(1).run(spec);
                report.expect("the reference run succeeds")
            })
            .collect();
        let references = reports.iter().map(CampaignReport::to_json).collect();
        let template =
            Arc::new(CellCache::open(dir.join("template")).expect("the template cache opens"));
        for spec in mix.template_specs() {
            CampaignRunner::new()
                .with_cache(Arc::clone(&template))
                .run(&spec)
                .expect("the template fill succeeds");
        }
        let template_entries = template.stats().entries;
        drop(template);
        let appends = mix.hits_and_appends().1 as u64;
        let mut workload = ServeMixed {
            spec_texts,
            reports,
            references,
            template_entries,
            appends,
            dir,
            rounds: 0,
            server: None,
        };
        workload.reset();
        workload
    }

    fn stop_server(&mut self) {
        if let Some(running) = self.server.take() {
            let _ = client::shutdown(&running.addr);
            drop(running.cache);
            let _ = running.handle.join();
        }
    }

    /// Both clients' submissions, in round order.  `on_request` runs on
    /// the client thread just before each submission.
    fn round(&self, addr: &str, on_request: &(dyn Fn(usize) + Sync)) -> Vec<Request> {
        let mut requests: Vec<(usize, Request)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    s.spawn(move || {
                        (c..self.spec_texts.len())
                            .step_by(CLIENTS)
                            .map(|i| {
                                on_request(i);
                                (i, self.submit(addr, i))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("a client thread panicked"))
                .collect()
        });
        requests.sort_by_key(|(i, _)| *i);
        requests.into_iter().map(|(_, r)| r).collect()
    }

    fn submit(&self, addr: &str, i: usize) -> Request {
        let start = Instant::now();
        let mut accepted = None;
        let mut last_frame = None;
        let mut frames = 0;
        let result = client::submit(addr, &self.spec_texts[i], |frame| {
            let now = Instant::now();
            frames += 1;
            if frame.get("event").and_then(Value::as_str) == Some("accepted") {
                accepted = Some(now);
            }
            last_frame = Some(now);
        });
        let end = Instant::now();
        let ok = match &result {
            Ok(report) if *report == self.references[i] => true,
            Ok(_) => {
                eprintln!("perfbench: request {i} returned a report other than the reference");
                false
            }
            Err(e) => {
                eprintln!("perfbench: request {i} failed: {e}");
                false
            }
        };
        Request {
            ok,
            start,
            accepted,
            last_frame,
            end,
            frames: frames + u64::from(result.is_ok()),
        }
    }

    /// The offline reports of the requests answered correctly.
    fn delivered(&self, requests: &[Request]) -> Vec<&CampaignReport> {
        requests
            .iter()
            .zip(&self.reports)
            .filter(|(r, _)| r.ok)
            .map(|(_, report)| report)
            .collect()
    }

    fn outcome(&self, requests: &[Request], cache_ok: bool) -> Outcome {
        Outcome {
            // One unit per request, plus the round's cache invariant (see
            // `cache_ok`).
            attempted: requests.len() as u64 + 1,
            failed: requests.iter().filter(|r| !r.ok).count() as u64 + u64::from(!cache_ok),
            uops: self
                .delivered(requests)
                .into_iter()
                .map(workload::report_uops)
                .sum(),
            requests_ms: requests
                .iter()
                .map(|r| (r.end - r.start).as_secs_f64() * 1e3)
                .collect(),
        }
    }

    /// The round's cache invariant: the cache ends holding the template
    /// plus every cell the template lacked, each simulated at least once.
    /// A cell may be simulated twice: `CellCache::claim` looks the key up
    /// before it takes the in-flight table, so a lookup that misses just
    /// before the other client publishes the cell makes a second lead.
    /// That costs time, not correctness, and shows in `cache.inserts`.
    fn cache_ok(&self, stats: &CacheStats) -> bool {
        let entries = self.template_entries + self.appends;
        let ok = stats.entries == entries && stats.inserts >= self.appends;
        if !ok {
            eprintln!(
                "perfbench: the round left {} cache entries after {} inserts; \
                 expected {entries} after at least {}",
                stats.entries, stats.inserts, self.appends
            );
        } else if stats.inserts > self.appends {
            eprintln!(
                "perfbench: {} of {} appended cells were simulated twice",
                stats.inserts - self.appends,
                self.appends
            );
        }
        ok
    }

    fn running(&self) -> &Running {
        self.server
            .as_ref()
            .expect("reset stands the daemon up before every round")
    }
}

impl Workload for ServeMixed {
    fn run(&mut self) -> Outcome {
        let running = self.running();
        let requests = self.round(&running.addr, &|_| ());
        let cache_ok = self.cache_ok(&running.cache.stats());
        self.outcome(&requests, cache_ok)
    }

    fn run_traced(&mut self, tracer: &Tracer) -> (spans::SpanId, Outcome, Layers) {
        let running = self.running();
        let root = tracer.open("serve.round", None);
        let id = root.id();
        let decode = |i: usize| {
            let spec = tracer.time("spec.decode", Some(id), || {
                CampaignSpec::from_json(&self.spec_texts[i])
            });
            spec.expect("generated specs decode");
        };
        let requests = self.round(&running.addr, &decode);
        drop(root);
        for r in &requests {
            let span = tracer.record("serve.submit", Some(id), r.start, r.end);
            if let (Some(accepted), Some(last)) = (r.accepted, r.last_frame) {
                tracer.record("serve.accept", Some(span), r.start, accepted);
                tracer.record("serve.stream", Some(span), accepted, last);
                tracer.record("serve.report", Some(span), last, r.end);
            }
        }
        let stats = running.cache.stats();
        let server_nanos = client::get(&running.addr, "/metrics")
            .ok()
            .and_then(|body| serde::json::parse(&body).ok())
            .and_then(|m| match m.get("request_nanos")?.get("total")? {
                Value::UInt(n) => Some(*n as f64),
                _ => None,
            })
            .unwrap_or(0.0);

        let tree = tracer.tree(id);
        let ms = |name| -> f64 {
            let d: Vec<f64> = spans::durations_ns(&tree, name)
                .into_iter()
                .map(|d| d as f64 / 1e6)
                .collect();
            stats::median(&d).unwrap_or(0.0)
        };
        let mut layers = Layers::new();
        layers.insert("serve.accept_ms_p50", ms("serve.accept"));
        layers.insert("serve.stream_ms_p50", ms("serve.stream"));
        layers.insert("serve.report_ms_p50", ms("serve.report"));
        layers.insert(
            "serve.frames",
            requests.iter().map(|r| r.frames).sum::<u64>() as f64,
        );
        layers.insert("serve.server_nanos_total", server_nanos);
        layers.insert(
            "spec.decode_ns",
            spans::total_ns(&tree, "spec.decode") as f64,
        );
        workload::cache_figures(&stats, &mut layers);
        workload::simulated_figures(&self.delivered(&requests), &mut layers);
        let outcome = self.outcome(&requests, self.cache_ok(&stats));
        (id, outcome, layers)
    }

    /// Stop the daemon, restore the template cache into a fresh directory
    /// and stand a new daemon up over it, so every round starts from the
    /// same cache.
    fn reset(&mut self) {
        self.stop_server();
        let previous = self.dir.join(format!("live-{:04}", self.rounds));
        let _ = std::fs::remove_dir_all(previous);
        self.rounds += 1;
        let live = self.dir.join(format!("live-{:04}", self.rounds));
        copy_dir(&self.dir.join("template"), &live).expect("the template cache copies");
        let server = Server::bind(ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            cache_dir: Some(live),
            ..ServeOptions::default()
        })
        .expect("the daemon binds a loopback port");
        let addr = server.local_addr().to_string();
        let cache = Arc::clone(server.cache().expect("the daemon was given a cache"));
        let handle = std::thread::spawn(move || server.serve());
        self.server = Some(Running {
            addr,
            cache,
            handle,
        });
    }
}

impl Drop for ServeMixed {
    fn drop(&mut self) {
        self.stop_server();
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
