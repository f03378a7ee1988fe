//! The dedicated engine worker binary.
//!
//! Spawned by [`SubprocessBackend`](mmlp_parallel::SubprocessBackend) (or
//! named via the `MMLP_WORKER_BIN` environment variable), it speaks the
//! length-prefixed frame protocol of `mmlp_parallel::wire` over stdio and
//! dispatches the engine's pipeline stages **and** the distributed
//! simulator's worker-resident `mmlp/sim-epoch@1` stage (for the gathering
//! protocol and the gather-then-decide rule programs) through
//! [`mmlp_algorithms::transport::engine_registry`].  It exits cleanly on a
//! `Shutdown` frame or when the driver closes the pipe.

fn main() {
    if let Err(e) = mmlp_algorithms::serve_engine_worker_stdio() {
        eprintln!("mmlp-worker: protocol error: {e}");
        std::process::exit(2);
    }
}
