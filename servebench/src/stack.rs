//! Starting the serving stack in-process through its public API, and the
//! timed set-up that `setup_s` measures.

use crate::instance::{Instance, SHARDS};
use crate::workload::Workload;
use hcl_core::{HighwayCoverLabelling, PartitionMap, SharedOracle, SparseView};
use hcl_router::{Router, RouterConfig, RouterHandle};
use hcl_server::{Client, QueryService, Server, ServerConfig, ServerHandle, ServingIndex};
use hcl_store::PackedOracle;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Production default cache capacity (`hcl serve --cache`).
pub const CACHE_ENTRIES: usize = 1 << 16;
/// Worker threads per server: fixed, never 0 ("all cores"), so the
/// deployment's runnable threads stay close to a small host's core count.
pub const WORKERS_PER_SERVER: usize = 1;
/// Threads `build_parallel` uses at set-up.
pub const BUILD_THREADS: usize = 2;

pub fn server_config() -> ServerConfig {
    ServerConfig {
        batch_threads: WORKERS_PER_SERVER,
        drain_grace: Duration::from_millis(500),
        ..ServerConfig::default()
    }
}

pub fn router_config() -> RouterConfig {
    RouterConfig { drain_grace: Duration::from_millis(500), ..RouterConfig::default() }
}

pub fn serve(index: ServingIndex) -> std::io::Result<ServerHandle> {
    Server::bind(
        Arc::new(QueryService::with_index(index, CACHE_ENTRIES)),
        "127.0.0.1:0",
        server_config(),
    )
}

/// A running deployment: servers, plus the router in front of them when
/// sharded. Dropping it shuts everything down and joins the threads.
pub struct Stack {
    pub addr: SocketAddr,
    pub servers: Vec<ServerHandle>,
    pub router: Option<RouterHandle>,
}

impl Stack {
    pub fn direct(server: ServerHandle) -> Stack {
        Stack { addr: server.local_addr(), servers: vec![server], router: None }
    }

    /// `SHARDS` packed shard servers from a `write_packed_deployment`
    /// directory, behind a router.
    pub fn routed(dir: &str, map: PartitionMap) -> Result<Stack, String> {
        let mut servers = Vec::new();
        for shard in 0..SHARDS {
            let path = hcl_core::partition::shard_packed_path(dir, shard);
            let oracle = PackedOracle::open(&path).map_err(|e| format!("{path}: {e}"))?;
            servers.push(serve(ServingIndex::Packed(oracle)).map_err(|e| e.to_string())?);
        }
        let addrs: Vec<SocketAddr> = servers.iter().map(|s| s.local_addr()).collect();
        let router = Router::bind(map, &addrs, "127.0.0.1:0", router_config())
            .map_err(|e| format!("router: {e}"))?;
        Ok(Stack { addr: router.local_addr(), servers, router: Some(router) })
    }

    /// The raw `STATS` body as seen through the stack's front door.
    pub fn stats(&self) -> Result<String, String> {
        let mut client = Client::connect(self.addr).map_err(|e| format!("STATS: {e}"))?;
        client.stats().map_err(|e| format!("STATS: {e}"))
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        if let Some(router) = &self.router {
            router.shutdown();
        }
        for server in &self.servers {
            server.shutdown();
        }
    }
}

/// Milliseconds spent in each set-up step.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupSteps {
    pub generate_ms: f64,
    pub build_ms: f64,
    /// `SparseView::build` (direct) or, routed, folded into `pack_ms`.
    pub sparsify_ms: f64,
    /// `write_packed_deployment`: partition + per-shard sparsify + pack.
    pub pack_ms: f64,
    /// Opening indexes, binding servers/router, first answer.
    pub serve_ms: f64,
    pub total_s: f64,
}

/// One complete set-up, from nothing to the first served answer.
pub struct Setup {
    pub instance: Instance,
    pub labelling: Arc<HighwayCoverLabelling>,
    /// The in-memory oracle a direct deployment serves (`None` routed).
    pub oracle: Option<SharedOracle>,
    pub stack: Stack,
    pub steps: SetupSteps,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Generates the instance, builds, sparsifies (and, routed, partitions and
/// packs into `dir`), starts the stack and waits for its first answer.
pub fn set_up(workload: Workload, seed: u64, dir: &str) -> Result<Setup, String> {
    let started = Instant::now();
    let mut steps = SetupSteps::default();
    let t = Instant::now();
    let instance = Instance::generate(seed);
    steps.generate_ms = ms(t);
    let t = Instant::now();
    let (labelling, _) =
        HighwayCoverLabelling::build_parallel(&instance.graph, &instance.landmarks, BUILD_THREADS)
            .map_err(|e| format!("build: {e}"))?;
    let labelling = Arc::new(labelling);
    steps.build_ms = ms(t);
    let (stack, oracle) = if workload.routed() {
        let t = Instant::now();
        let map = instance.partition();
        hcl_store::write_packed_deployment(dir, &instance.graph, &labelling, &map)
            .map_err(|e| format!("packed deployment: {e}"))?;
        steps.pack_ms = ms(t);
        let t = Instant::now();
        let stack = Stack::routed(dir, map)?;
        steps.serve_ms = ms(t);
        (stack, None)
    } else {
        let t = Instant::now();
        let sparse = SparseView::build(&instance.graph, labelling.highway());
        let oracle = SharedOracle::from_parts(
            Arc::clone(&instance.graph),
            Arc::clone(&labelling),
            Arc::new(sparse),
        );
        steps.sparsify_ms = ms(t);
        let t = Instant::now();
        let server = serve(ServingIndex::Memory(oracle.clone())).map_err(|e| e.to_string())?;
        steps.serve_ms = ms(t);
        (Stack::direct(server), Some(oracle))
    };
    let t = Instant::now();
    let last = instance.num_vertices() as u32 - 1;
    Client::connect(stack.addr)
        .map_err(|e| e.to_string())?
        .query(0, last)
        .map_err(|e| format!("first answer: {e}"))?;
    steps.serve_ms += ms(t);
    steps.total_s = started.elapsed().as_secs_f64();
    Ok(Setup { instance, labelling, oracle, stack, steps })
}
