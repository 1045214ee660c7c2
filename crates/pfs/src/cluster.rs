//! One-call assembly of a complete NASD PFS installation: drives, Cheops
//! manager, name service, and per-node clients — the Figure 8 stack.

use crate::name::NameService;
use crate::sio::PfsClient;
use nasd_cheops::{CheopsConnect, CheopsManager, CheopsRequest, CheopsResponse};
use nasd_fm::{DriveFleet, FmError};
use nasd_net::{Channel, Connector, ServiceHandle};
use nasd_object::DriveConfig;
use nasd_proto::PartitionId;
use std::sync::Arc;

/// A running PFS installation.
pub struct PfsCluster {
    fleet: Arc<DriveFleet>,
    cheops: Channel<CheopsRequest, CheopsResponse>,
    names: Channel<crate::name::NameRequest, crate::name::NameResponse>,
    stripe_unit: u64,
    _handles: Vec<ServiceHandle>,
}

impl PfsCluster {
    /// Spawn `ndrives` memory-backed drives plus the managers, with the
    /// given stripe unit (the paper used 512 KB for the mining runs).
    ///
    /// # Errors
    ///
    /// Drive bootstrap failures.
    pub fn spawn(ndrives: usize, stripe_unit: u64) -> Result<Self, FmError> {
        Self::spawn_with_config(ndrives, stripe_unit, DriveConfig::prototype())
    }

    /// Spawn with a custom drive configuration.
    ///
    /// # Errors
    ///
    /// Drive bootstrap failures.
    pub fn spawn_with_config(
        ndrives: usize,
        stripe_unit: u64,
        config: DriveConfig,
    ) -> Result<Self, FmError> {
        let fleet = Arc::new(DriveFleet::spawn_memory(
            ndrives,
            config,
            PartitionId(1),
            1 << 32,
        )?);
        let (cheops, h1) = CheopsManager::new(Arc::clone(&fleet)).spawn();
        let (names, h2) = NameService::new().spawn();
        Ok(PfsCluster {
            fleet,
            cheops,
            names,
            stripe_unit,
            _handles: vec![h1, h2],
        })
    }

    /// Number of drives.
    #[must_use]
    pub fn ndrives(&self) -> usize {
        self.fleet.len()
    }

    /// The drive fleet.
    #[must_use]
    pub fn fleet(&self) -> &Arc<DriveFleet> {
        &self.fleet
    }

    /// The configured stripe unit.
    #[must_use]
    pub fn stripe_unit(&self) -> u64 {
        self.stripe_unit
    }

    /// A client for compute node `node` (clients are cheap; one per
    /// thread).
    #[must_use]
    pub fn client(&self, node: u64) -> PfsClient {
        let connector = Connector::new();
        let storage = connector.cheops(node, self.cheops.clone(), Arc::clone(&self.fleet));
        PfsClient::new(
            connector.in_proc(self.names.clone()),
            storage,
            self.stripe_unit,
        )
    }
}

impl std::fmt::Debug for PfsCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PfsCluster")
            .field("ndrives", &self.fleet.len())
            .field("stripe_unit", &self.stripe_unit)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize) -> PfsCluster {
        PfsCluster::spawn_with_config(n, 64 * 1024, DriveConfig::small()).unwrap()
    }

    #[test]
    fn create_open_read_write() {
        let c = cluster(4);
        let client = c.client(0);
        let f = client.create("/data", 4).unwrap();
        let data: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        client.write_at(&f, 0, &data).unwrap();
        let back = client.read_at(&f, 0, data.len() as u64).unwrap();
        assert_eq!(back, data);
        assert_eq!(client.size(&f).unwrap(), data.len() as u64);
        assert_eq!(f.width(), 4);
        assert_eq!(f.stripe_unit(), 64 * 1024);
    }

    #[test]
    fn parallel_nodes_share_a_file() {
        // The Figure 9 access pattern in miniature: every node writes its
        // own round-robin chunks, then every node reads chunks written by
        // others.
        let c = Arc::new(cluster(4));
        let writer = c.client(0);
        let _ = writer.create("/shared", 4).unwrap();
        let chunk = 64 * 1024u64;
        let nodes = 4u64;

        let mut joins = Vec::new();
        for node in 0..nodes {
            let c = Arc::clone(&c);
            joins.push(std::thread::spawn(move || {
                let client = c.client(node);
                let f = client.open("/shared").unwrap();
                // Write chunks node, node+4, node+8, ...
                for k in (node..16).step_by(nodes as usize) {
                    let data = vec![k as u8; chunk as usize];
                    client.write_at(&f, k * chunk, &data).unwrap();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }

        // Cross-check: every chunk readable by a different node.
        let mut joins = Vec::new();
        for node in 0..nodes {
            let c = Arc::clone(&c);
            joins.push(std::thread::spawn(move || {
                let client = c.client(100 + node);
                let f = client.open("/shared").unwrap();
                for k in ((node + 1) % nodes..16).step_by(nodes as usize) {
                    let back = client.read_at(&f, k * chunk, chunk).unwrap();
                    assert!(back.to_vec().iter().all(|&b| b == k as u8), "chunk {k}");
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn namespace_operations() {
        let c = cluster(2);
        let client = c.client(0);
        client.create("/a", 2).unwrap();
        client.create("/b", 1).unwrap();
        assert!(matches!(
            client.create("/a", 2),
            Err(crate::PfsError::Exists(_))
        ));
        assert_eq!(client.list("/").unwrap().len(), 2);
        client.unlink("/a").unwrap();
        assert!(matches!(
            client.open("/a"),
            Err(crate::PfsError::NotFound(_))
        ));
        assert_eq!(client.list("/").unwrap(), vec!["/b".to_string()]);
    }

    #[test]
    fn read_list_gathers_extents() {
        let c = cluster(2);
        let client = c.client(0);
        let f = client.create("/l", 2).unwrap();
        client.write_at(&f, 0, &vec![7u8; 200_000]).unwrap();
        let parts = client
            .read_list(&f, &[(0, 1000), (100_000, 1000), (199_000, 1000)])
            .unwrap();
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|p| p.len() == 1000));
        assert!(parts.iter().all(|p| p.to_vec().iter().all(|&b| b == 7)));
    }
}
