//! Guest tasks (processes), guest threads, sessions, and namespaces.
//!
//! PID and USER namespaces are what lets `sfork` keep identity-dependent
//! state consistent across fork (paper §4, Challenge-3: a template that
//! cached `getpid()` must observe the same pid after `sfork`).

use simtime::{CostModel, SimClock};

use crate::table::Text;
use crate::KernelError;

/// A guest thread context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuestThread {
    /// Thread id.
    pub tid: u32,
    /// Opaque register-file digest (stands in for saved CPU context).
    pub context: u64,
    /// Id of the wait object this thread blocks on, if any.
    pub blocked_on: Option<u64>,
}

/// A guest task (process).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    /// Process id, as seen inside the PID namespace.
    pub pid: u32,
    /// Parent pid (0 for the init task).
    pub ppid: u32,
    /// Command name.
    pub(crate) name: Text,
    /// Threads belonging to the task.
    pub threads: Vec<GuestThread>,
    /// Session id.
    pub sid: u32,
}

impl Task {
    /// Command name.
    pub fn name(&self) -> &str {
        self.name.as_str()
    }
}

/// A session / process-group record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// Session id.
    pub sid: u32,
    /// Leader pid.
    pub leader: u32,
}

/// A namespace record (PID, USER, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamespaceInfo {
    /// Namespace kind label ("pid", "user", "net", ...).
    pub(crate) kind: Text,
    /// Root identity mapped inside the namespace (pid 1 / uid 0).
    pub init_id: u32,
}

impl NamespaceInfo {
    /// Namespace kind label ("pid", "user", "net", ...).
    pub fn kind(&self) -> &str {
        self.kind.as_str()
    }
}

/// The guest task table.
#[derive(Debug, Clone)]
pub struct TaskTable {
    tasks: Vec<Task>,
    sessions: Vec<Session>,
    namespaces: Vec<NamespaceInfo>,
    next_pid: u32,
    next_tid: u32,
}

impl TaskTable {
    /// Creates a table with the init task (pid 1) in fresh PID and USER
    /// namespaces.
    pub fn new(init_name: &str) -> TaskTable {
        TaskTable {
            tasks: vec![Task {
                pid: 1,
                ppid: 0,
                name: init_name.into(),
                threads: vec![GuestThread {
                    tid: 1,
                    context: 0,
                    blocked_on: None,
                }],
                sid: 1,
            }],
            sessions: vec![Session { sid: 1, leader: 1 }],
            namespaces: vec![
                NamespaceInfo {
                    kind: "pid".into(),
                    init_id: 1,
                },
                NamespaceInfo {
                    kind: "user".into(),
                    init_id: 0,
                },
            ],
            next_pid: 2,
            next_tid: 2,
        }
    }

    /// An empty table for restore paths (no init task pre-created).
    pub fn empty() -> TaskTable {
        TaskTable {
            tasks: Vec::new(),
            sessions: Vec::new(),
            namespaces: Vec::new(),
            next_pid: 2,
            next_tid: 2,
        }
    }

    /// All tasks.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// All sessions.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// All namespaces.
    pub fn namespaces(&self) -> &[NamespaceInfo] {
        &self.namespaces
    }

    /// Total guest threads across tasks.
    pub fn thread_count(&self) -> usize {
        self.tasks.iter().map(|t| t.threads.len()).sum()
    }

    /// The init (pid 1) task's pid as seen in-namespace — constant across
    /// `sfork` thanks to the PID namespace.
    pub fn getpid(&self) -> u32 {
        self.tasks.first().map(|t| t.pid).unwrap_or(0)
    }

    /// Spawns a task, charging process-spawn cost.
    pub fn spawn_task(
        &mut self,
        ppid: u32,
        name: &str,
        clock: &SimClock,
        model: &CostModel,
    ) -> u32 {
        clock.charge(model.host.process_spawn);
        let pid = self.next_pid;
        self.next_pid += 1;
        let tid = self.next_tid;
        self.next_tid += 1;
        let sid = self
            .tasks
            .iter()
            .find(|t| t.pid == ppid)
            .map(|t| t.sid)
            .unwrap_or(1);
        self.tasks.push(Task {
            pid,
            ppid,
            name: name.into(),
            threads: vec![GuestThread {
                tid,
                context: u64::from(tid) << 32,
                blocked_on: None,
            }],
            sid,
        });
        pid
    }

    /// Spawns a thread in an existing task (`clone`).
    ///
    /// # Errors
    ///
    /// [`KernelError::CorruptGraph`] if the pid does not exist.
    pub fn spawn_thread(
        &mut self,
        pid: u32,
        clock: &SimClock,
        model: &CostModel,
    ) -> Result<u32, KernelError> {
        clock.charge(model.host.thread_spawn);
        let tid = self.next_tid;
        let task = self
            .tasks
            .iter_mut()
            .find(|t| t.pid == pid)
            .ok_or_else(|| KernelError::CorruptGraph {
                detail: format!("spawn_thread: no task with pid {pid}"),
            })?;
        self.next_tid += 1;
        task.threads.push(GuestThread {
            tid,
            context: u64::from(tid) << 32 | 0xCAFE,
            blocked_on: None,
        });
        Ok(tid)
    }

    /// Creates a new session led by `pid` (`setsid`).
    ///
    /// # Errors
    ///
    /// [`KernelError::CorruptGraph`] if the pid does not exist.
    pub fn setsid(&mut self, pid: u32) -> Result<u32, KernelError> {
        let sid = pid;
        let task = self
            .tasks
            .iter_mut()
            .find(|t| t.pid == pid)
            .ok_or_else(|| KernelError::CorruptGraph {
                detail: format!("setsid: no task with pid {pid}"),
            })?;
        task.sid = sid;
        self.sessions.push(Session { sid, leader: pid });
        Ok(sid)
    }

    /// Adds a namespace record.
    pub fn add_namespace(&mut self, kind: &str, init_id: u32, clock: &SimClock, model: &CostModel) {
        clock.charge(model.host.namespace_setup);
        self.namespaces.push(NamespaceInfo {
            kind: kind.into(),
            init_id,
        });
    }

    /// Installs a restored task verbatim.
    pub(crate) fn install_restored_task(&mut self, task: Task) {
        self.next_pid = self.next_pid.max(task.pid + 1);
        self.next_tid = self
            .next_tid
            .max(task.threads.iter().map(|t| t.tid + 1).max().unwrap_or(2));
        self.tasks.push(task);
    }

    /// Installs a restored session verbatim.
    pub(crate) fn install_restored_session(&mut self, session: Session) {
        self.sessions.push(session);
    }

    /// Installs a restored namespace verbatim.
    pub(crate) fn install_restored_namespace(&mut self, ns: NamespaceInfo) {
        self.namespaces.push(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SimClock, CostModel) {
        (SimClock::new(), CostModel::experimental_machine())
    }

    #[test]
    fn init_task_exists() {
        let t = TaskTable::new("wrapper");
        assert_eq!(t.getpid(), 1);
        assert_eq!(t.tasks().len(), 1);
        assert_eq!(t.thread_count(), 1);
        assert_eq!(t.namespaces().len(), 2);
    }

    #[test]
    fn spawn_task_and_thread() {
        let (clock, model) = setup();
        let mut t = TaskTable::new("init");
        let pid = t.spawn_task(1, "worker", &clock, &model);
        assert_eq!(pid, 2);
        let tid = t.spawn_thread(pid, &clock, &model).unwrap();
        assert!(tid > 1);
        assert_eq!(t.thread_count(), 3);
        assert!(t.spawn_thread(99, &clock, &model).is_err());
    }

    #[test]
    fn sessions_inherit_and_split() {
        let (clock, model) = setup();
        let mut t = TaskTable::new("init");
        let pid = t.spawn_task(1, "daemon", &clock, &model);
        assert_eq!(t.tasks()[1].sid, 1, "inherits parent session");
        t.setsid(pid).unwrap();
        assert_eq!(t.tasks()[1].sid, pid);
        assert_eq!(t.sessions().len(), 2);
        assert!(t.setsid(404).is_err());
    }

    #[test]
    fn restored_ids_advance_counters() {
        let (clock, model) = setup();
        let mut t = TaskTable::empty();
        t.install_restored_task(Task {
            pid: 40,
            ppid: 1,
            name: "jvm".into(),
            threads: vec![GuestThread {
                tid: 77,
                context: 1,
                blocked_on: None,
            }],
            sid: 1,
        });
        let pid = t.spawn_task(40, "child", &clock, &model);
        assert!(pid > 40);
        let tid = t.spawn_thread(pid, &clock, &model).unwrap();
        assert!(tid > 77);
    }
}
