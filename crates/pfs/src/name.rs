//! PFS name service: a flat hierarchical namespace over Cheops logical
//! objects ("inherits a name service, directory hierarchy, and access
//! controls from the filesystem").

use nasd_cheops::LogicalObjectId;
use nasd_net::{spawn_service, Channel, ServiceHandle};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Name service requests.
#[derive(Clone, Debug)]
pub enum NameRequest {
    /// Bind `path` to a logical object.
    Bind {
        /// Absolute path.
        path: String,
        /// Backing logical object.
        id: LogicalObjectId,
    },
    /// Resolve a path.
    Lookup {
        /// Absolute path.
        path: String,
    },
    /// Remove a binding.
    Unbind {
        /// Absolute path.
        path: String,
    },
    /// List paths under a prefix.
    List {
        /// Path prefix (`/` for everything).
        prefix: String,
    },
}

/// Name service replies.
#[derive(Clone, Debug)]
pub enum NameResponse {
    /// Resolved logical object.
    Id(LogicalObjectId),
    /// Listing.
    Paths(Vec<String>),
    /// Success.
    Ok,
    /// Name not bound.
    NotFound,
    /// Name already bound.
    Exists,
}

/// The (threaded) PFS name service.
#[derive(Default)]
pub struct NameService {
    names: Mutex<BTreeMap<String, LogicalObjectId>>,
}

impl NameService {
    /// Create an empty namespace.
    #[must_use]
    pub fn new() -> Self {
        NameService::default()
    }

    /// Handle one request.
    pub fn handle(&self, req: NameRequest) -> NameResponse {
        let mut names = self.names.lock();
        match req {
            NameRequest::Bind { path, id } => match names.entry(path) {
                std::collections::btree_map::Entry::Occupied(_) => NameResponse::Exists,
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(id);
                    NameResponse::Ok
                }
            },
            NameRequest::Lookup { path } => match names.get(&path) {
                Some(&id) => NameResponse::Id(id),
                None => NameResponse::NotFound,
            },
            NameRequest::Unbind { path } => {
                if names.remove(&path).is_some() {
                    NameResponse::Ok
                } else {
                    NameResponse::NotFound
                }
            }
            NameRequest::List { prefix } => NameResponse::Paths(
                names
                    .range(prefix.clone()..)
                    .take_while(|(k, _)| k.starts_with(&prefix))
                    .map(|(k, _)| k.clone())
                    .collect(),
            ),
        }
    }

    /// Spawn as a threaded service.
    #[must_use]
    pub fn spawn(self) -> (Channel<NameRequest, NameResponse>, ServiceHandle) {
        let svc = Arc::new(self);
        spawn_service(move |req| svc.handle(req))
    }
}

impl std::fmt::Debug for NameService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NameService")
            .field("names", &self.names.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_lookup_unbind() {
        let ns = NameService::new();
        assert!(matches!(
            ns.handle(NameRequest::Bind {
                path: "/a".into(),
                id: LogicalObjectId(1)
            }),
            NameResponse::Ok
        ));
        assert!(matches!(
            ns.handle(NameRequest::Lookup { path: "/a".into() }),
            NameResponse::Id(LogicalObjectId(1))
        ));
        assert!(matches!(
            ns.handle(NameRequest::Bind {
                path: "/a".into(),
                id: LogicalObjectId(2)
            }),
            NameResponse::Exists
        ));
        assert!(matches!(
            ns.handle(NameRequest::Unbind { path: "/a".into() }),
            NameResponse::Ok
        ));
        assert!(matches!(
            ns.handle(NameRequest::Lookup { path: "/a".into() }),
            NameResponse::NotFound
        ));
    }

    #[test]
    fn list_by_prefix() {
        let ns = NameService::new();
        for (i, p) in ["/data/a", "/data/b", "/tmp/x"].iter().enumerate() {
            ns.handle(NameRequest::Bind {
                path: (*p).to_string(),
                id: LogicalObjectId(i as u64),
            });
        }
        let NameResponse::Paths(paths) = ns.handle(NameRequest::List {
            prefix: "/data/".into(),
        }) else {
            panic!();
        };
        assert_eq!(paths, vec!["/data/a".to_string(), "/data/b".to_string()]);
    }
}
