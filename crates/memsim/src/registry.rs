//! Memory registration: CUDA IPC export/open and NIC (RDMA)
//! registration.
//!
//! Real GPUDirect/IPC requires memory to be *registered* before a peer
//! process or the NIC may touch it, and registration is expensive — the
//! paper's pipelined RDMA protocol exists largely to pay that cost **once**
//! per connection instead of once per fragment. The table below tracks
//! what has been registered so the protocol layers can (a) enforce the
//! precondition and (b) know when they may skip the cost.

use crate::error::MemError;
use crate::ptr::{AllocId, Ptr};
use crate::space::{GpuId, MemSpace};
use simcore::hash::DetHashMap;

/// Kinds of registration a buffer can hold.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Registration {
    /// Exported through CUDA IPC (peer process may map it).
    IpcExport,
    /// Registered with the NIC for RDMA.
    Rdma,
}

/// An opaque token a process passes to a peer so the peer can map the
/// exporter's device memory (the simulated `cudaIpcMemHandle_t`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct IpcHandle {
    pub gpu: GpuId,
    pub alloc: AllocId,
    pub len: u64,
}

/// Tracks registrations per allocation.
#[derive(Default)]
pub struct RegistrationTable {
    regs: DetHashMap<(MemSpace, AllocId), Vec<Registration>>,
}

impl RegistrationTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a registration kind to the allocation behind `ptr`.
    pub fn register(&mut self, ptr: Ptr, kind: Registration) {
        let kinds = self.regs.entry((ptr.space, ptr.alloc)).or_default();
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }

    /// Drop every registration on an allocation (called on free).
    pub(crate) fn drop_all(&mut self, space: MemSpace, alloc: AllocId) {
        self.regs.remove(&(space, alloc));
    }

    pub fn is_registered(&self, ptr: Ptr, kind: Registration) -> bool {
        self.regs
            .get(&(ptr.space, ptr.alloc))
            .is_some_and(|k| k.contains(&kind))
    }

    /// Require a registration, with the error a real stack would raise.
    pub fn require(&self, ptr: Ptr, kind: Registration) -> Result<(), MemError> {
        if self.is_registered(ptr, kind) {
            Ok(())
        } else {
            Err(MemError::NotRegistered(ptr))
        }
    }

    /// Export a device allocation over IPC, yielding the handle the peer
    /// will open. `len` is carried in the handle for peer-side bounds
    /// checks.
    pub fn export_ipc(&mut self, ptr: Ptr, len: u64) -> Result<IpcHandle, MemError> {
        let MemSpace::Device(gpu) = ptr.space else {
            return Err(MemError::WrongSpace {
                ptr,
                expected: MemSpace::Device(GpuId(0)),
            });
        };
        self.register(ptr, Registration::IpcExport);
        Ok(IpcHandle {
            gpu,
            alloc: ptr.alloc,
            len,
        })
    }

    /// Open a peer's IPC handle, producing a pointer into the exporter's
    /// memory. Fails if the exporter never registered (or has freed) the
    /// allocation.
    pub fn open_ipc(&self, handle: IpcHandle) -> Result<Ptr, MemError> {
        let ptr = Ptr {
            space: MemSpace::Device(handle.gpu),
            alloc: handle.alloc,
            offset: 0,
        };
        self.require(ptr, Registration::IpcExport)?;
        Ok(ptr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dptr() -> Ptr {
        Ptr {
            space: MemSpace::Device(GpuId(0)),
            alloc: AllocId(7),
            offset: 0,
        }
    }

    #[test]
    fn register_query_unregister() {
        let mut t = RegistrationTable::new();
        let p = dptr();
        assert!(!t.is_registered(p, Registration::Rdma));
        t.register(p, Registration::Rdma);
        assert!(t.is_registered(p, Registration::Rdma));
        assert!(t.require(p, Registration::Rdma).is_ok());
        t.drop_all(p.space, p.alloc);
        assert!(matches!(
            t.require(p, Registration::Rdma),
            Err(MemError::NotRegistered(_))
        ));
    }

    #[test]
    fn ipc_roundtrip() {
        let mut t = RegistrationTable::new();
        let p = dptr();
        let h = t.export_ipc(p, 4096).unwrap();
        assert_eq!(h.len, 4096);
        let mapped = t.open_ipc(h).unwrap();
        assert_eq!(mapped.alloc, p.alloc);
        assert_eq!(mapped.space, p.space);
    }

    #[test]
    fn ipc_rejects_host_memory() {
        let mut t = RegistrationTable::new();
        let host = Ptr {
            space: MemSpace::Host,
            alloc: AllocId(1),
            offset: 0,
        };
        assert!(t.export_ipc(host, 16).is_err());
    }

    #[test]
    fn open_unexported_handle_fails() {
        let t = RegistrationTable::new();
        let h = IpcHandle {
            gpu: GpuId(0),
            alloc: AllocId(3),
            len: 16,
        };
        assert!(t.open_ipc(h).is_err());
    }

    #[test]
    fn drop_all_clears() {
        let mut t = RegistrationTable::new();
        let p = dptr();
        t.register(p, Registration::Rdma);
        t.register(p, Registration::IpcExport);
        t.drop_all(p.space, p.alloc);
        assert!(!t.is_registered(p, Registration::Rdma));
        assert!(!t.is_registered(p, Registration::IpcExport));
    }

    #[test]
    fn registrations_are_deduplicated() {
        let mut t = RegistrationTable::new();
        let p = dptr();
        t.register(p, Registration::Rdma);
        t.register(p, Registration::Rdma);
        assert_eq!(t.regs[&(p.space, p.alloc)], [Registration::Rdma]);
    }
}
