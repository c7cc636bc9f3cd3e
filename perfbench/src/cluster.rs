//! A loopback shard cluster over one artifact: two by-band `ShardNode`s
//! in this process and a `ClusterClient` routing to them.

use crate::run::BenchResult;
use bdsm_cluster::{ClientConfig, ClusterClient, NodeConfig, ShardNode, ShardPlan};
use bdsm_rom::{RomArtifact, RomServer};
use std::time::Duration;

/// The cluster model id of the served artifact.
pub const MODEL: u64 = 1;
pub const SHARDS: u32 = 2;

pub struct Cluster {
    pub client: ClusterClient,
    nodes: Vec<ShardNode>,
}

impl Cluster {
    /// Spawns the shards (each decodes its own copy of `bytes`) on
    /// OS-assigned loopback ports, band-sharding the certified envelope.
    pub fn spawn(bytes: &[u8]) -> BenchResult<Cluster> {
        let artifact = RomArtifact::from_bytes(bytes)?;
        let (lo, hi) = artifact
            .provenance
            .certificate
            .frequency_envelope()
            .ok_or("the served artifact has no certified frequency envelope")?;
        let plan = ShardPlan::by_bands(MODEL, SHARDS, lo, hi)?;
        let digest = plan.digest();
        let nodes: Vec<ShardNode> = (0..SHARDS)
            .map(|shard_id| -> BenchResult<ShardNode> {
                let mut server = RomServer::new();
                let id = server.load_artifact(RomArtifact::from_bytes(bytes)?);
                Ok(ShardNode::spawn(
                    server,
                    vec![(MODEL, id)],
                    NodeConfig {
                        shard_id,
                        plan_digest: digest,
                        io_timeout: Duration::from_secs(60),
                    },
                    "127.0.0.1:0",
                )?)
            })
            .collect::<Result<_, _>>()?;
        let addrs: Vec<_> = nodes.iter().map(ShardNode::addr).collect();
        let client = ClusterClient::connect(plan, &addrs, ClientConfig::default())?;
        Ok(Cluster { client, nodes })
    }

    /// Asks every shard to stop, then joins their accept loops.
    pub fn shutdown(mut self) -> BenchResult<()> {
        let results = self.client.shutdown_all();
        for node in &mut self.nodes {
            node.shutdown();
        }
        for r in results {
            r?;
        }
        Ok(())
    }
}
