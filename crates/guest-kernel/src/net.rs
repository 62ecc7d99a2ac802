//! Guest network endpoints.
//!
//! Sockets are I/O system state: after a restore they exist but are
//! disconnected until re-established (eagerly by gVisor-restore, lazily or
//! via the I/O cache by Catalyzer — paper §3.3).

use simtime::{CostModel, SimClock};

use crate::table::Text;
use crate::KernelError;

/// Socket lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SockState {
    /// Created, unbound.
    Created,
    /// Listening on an address.
    Listening,
    /// Connected to a peer.
    Connected,
}

/// One guest socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Socket {
    /// Socket id within the table.
    pub id: u64,
    /// Bound / peer address.
    pub(crate) addr: Text,
    /// Lifecycle state.
    pub state: SockState,
    /// False right after restore until reconnected.
    pub connected_to_host: bool,
}

impl Socket {
    /// Bound / peer address.
    pub fn addr(&self) -> &str {
        self.addr.as_str()
    }
}

/// The guest socket table.
#[derive(Debug, Default, Clone)]
pub struct SocketTable {
    socks: Vec<Option<Socket>>,
    reconnects: u64,
}

impl SocketTable {
    /// Creates an empty table.
    pub fn new() -> SocketTable {
        SocketTable::default()
    }

    /// Number of live sockets.
    pub fn len(&self) -> usize {
        self.socks.iter().flatten().count()
    }

    /// True if no sockets are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// On-demand socket reconnections performed.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn push(&mut self, mut sock: Socket) -> u64 {
        let id = self.socks.len() as u64;
        sock.id = id;
        self.socks.push(Some(sock));
        id
    }

    /// Creates a socket.
    pub fn socket(&mut self, clock: &SimClock, model: &CostModel) -> u64 {
        clock.charge(model.host.syscall_base);
        self.push(Socket {
            id: 0,
            addr: Text::default(),
            state: SockState::Created,
            connected_to_host: true,
        })
    }

    fn get_mut(&mut self, id: u64) -> Result<&mut Socket, KernelError> {
        self.socks
            .get_mut(id as usize)
            .and_then(Option::as_mut)
            .ok_or(KernelError::BadSocketState { sock: id })
    }

    /// Looks up a socket.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadSocketState`] for a dead id.
    pub fn get(&self, id: u64) -> Result<&Socket, KernelError> {
        self.socks
            .get(id as usize)
            .and_then(Option::as_ref)
            .ok_or(KernelError::BadSocketState { sock: id })
    }

    /// Starts listening on `addr`.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadSocketState`] if not in `Created` state.
    pub fn listen(
        &mut self,
        id: u64,
        addr: &str,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<(), KernelError> {
        clock.charge(model.host.syscall_base);
        let sock = self.get_mut(id)?;
        if sock.state != SockState::Created {
            return Err(KernelError::BadSocketState { sock: id });
        }
        sock.addr = Text::from(addr);
        sock.state = SockState::Listening;
        Ok(())
    }

    /// Connects to a peer.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadSocketState`] if not in `Created` state.
    pub fn connect(
        &mut self,
        id: u64,
        addr: &str,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<(), KernelError> {
        clock.charge(
            model
                .host
                .syscall_base
                .saturating_add(model.io.reconnect_socket),
        );
        let sock = self.get_mut(id)?;
        if sock.state != SockState::Created {
            return Err(KernelError::BadSocketState { sock: id });
        }
        sock.addr = Text::from(addr);
        sock.state = SockState::Connected;
        Ok(())
    }

    /// Accepts a connection on a listening socket, producing a new connected
    /// socket.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadSocketState`] if not listening.
    pub fn accept(
        &mut self,
        id: u64,
        peer: &str,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<u64, KernelError> {
        clock.charge(model.host.syscall_base);
        let state = self.get(id)?.state;
        if state != SockState::Listening {
            return Err(KernelError::BadSocketState { sock: id });
        }
        Ok(self.push(Socket {
            id: 0,
            addr: Text::from(peer),
            state: SockState::Connected,
            connected_to_host: true,
        }))
    }

    /// Sends on a connected socket, reconnecting on demand after a restore.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadSocketState`] if not connected.
    pub fn send(
        &mut self,
        id: u64,
        bytes: usize,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<(), KernelError> {
        clock.charge(model.host.syscall_base);
        self.ensure_connected(id, clock, model)?;
        let sock = self.get_mut(id)?;
        if sock.state != SockState::Connected {
            return Err(KernelError::BadSocketState { sock: id });
        }
        clock.charge(model.memcpy(bytes as u64));
        Ok(())
    }

    /// Re-establishes the host-side connection if needed (on-demand I/O
    /// reconnection, §3.3).
    ///
    /// # Errors
    ///
    /// [`KernelError::BadSocketState`] for a dead id.
    pub fn ensure_connected(
        &mut self,
        id: u64,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<(), KernelError> {
        let sock = self.get_mut(id)?;
        if !sock.connected_to_host {
            sock.connected_to_host = true;
            self.reconnects += 1;
            clock.charge(model.io.reconnect_socket);
        }
        Ok(())
    }

    /// Closes a socket.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadSocketState`] for a dead id.
    pub fn shutdown(
        &mut self,
        id: u64,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<(), KernelError> {
        clock.charge(model.host.syscall_base.saturating_add(model.io.close_fd));
        let slot = self
            .socks
            .get_mut(id as usize)
            .ok_or(KernelError::BadSocketState { sock: id })?;
        if slot.take().is_none() {
            return Err(KernelError::BadSocketState { sock: id });
        }
        Ok(())
    }

    /// Installs a restored socket in the disconnected state.
    pub(crate) fn install_restored(&mut self, addr: Text, state: SockState) -> u64 {
        self.push(Socket {
            id: 0,
            addr,
            state,
            connected_to_host: false,
        })
    }

    /// Iterates live sockets.
    pub fn iter(&self) -> impl Iterator<Item = &Socket> {
        self.socks.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SimClock, CostModel, SocketTable) {
        (
            SimClock::new(),
            CostModel::experimental_machine(),
            SocketTable::new(),
        )
    }

    #[test]
    fn listen_accept_flow() {
        let (clock, model, mut t) = setup();
        let s = t.socket(&clock, &model);
        t.listen(s, "0.0.0.0:80", &clock, &model).unwrap();
        let c = t.accept(s, "10.0.0.9:1234", &clock, &model).unwrap();
        assert_eq!(t.get(c).unwrap().state, SockState::Connected);
        assert_eq!(t.len(), 2);
        t.send(c, 128, &clock, &model).unwrap();
    }

    #[test]
    fn connect_flow_and_state_errors() {
        let (clock, model, mut t) = setup();
        let s = t.socket(&clock, &model);
        t.connect(s, "db:5432", &clock, &model).unwrap();
        // Connecting again is a state error.
        assert!(t.connect(s, "x", &clock, &model).is_err());
        // Accept on a non-listening socket is a state error.
        assert!(t.accept(s, "p", &clock, &model).is_err());
        // Send on a created socket is a state error.
        let fresh = t.socket(&clock, &model);
        assert!(t.send(fresh, 1, &clock, &model).is_err());
    }

    #[test]
    fn restored_socket_reconnects_on_first_send() {
        let (clock, model, mut t) = setup();
        let s = t.install_restored(Text::from("cache:6379"), SockState::Connected);
        assert!(!t.get(s).unwrap().connected_to_host);
        t.send(s, 64, &clock, &model).unwrap();
        assert!(t.get(s).unwrap().connected_to_host);
        assert_eq!(t.reconnects(), 1);
        t.send(s, 64, &clock, &model).unwrap();
        assert_eq!(t.reconnects(), 1, "reconnect happens once");
    }

    #[test]
    fn shutdown_frees() {
        let (clock, model, mut t) = setup();
        let s = t.socket(&clock, &model);
        t.shutdown(s, &clock, &model).unwrap();
        assert!(t.get(s).is_err());
        assert!(t.shutdown(s, &clock, &model).is_err());
        assert!(t.is_empty());
    }
}
