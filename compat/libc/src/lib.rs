//! Offline shim for the `libc` crate: exactly the raw bindings this
//! workspace uses, declared directly against the C runtime every Rust
//! binary already links. Linux-only (the only platform this workspace
//! targets); constants are the x86-64/aarch64 Linux values.
//!
//! Surface: `poll(2)` readiness multiplexing, anonymous pipes for
//! cross-thread wakeups, and the `fcntl` calls needed to make those
//! pipes nonblocking. Sockets keep using `std::net`; only readiness
//! notification needs to drop below the standard library. Also
//! `mmap`/`munmap`/`madvise` for the simulated device image: one
//! anonymous mapping per device, backed by transparent huge pages.

#![allow(non_camel_case_types)]

pub use core::ffi::c_void;

pub type c_int = i32;
pub type c_short = i16;
pub type c_ulong = u64;
pub type nfds_t = c_ulong;
pub type off_t = i64;

/// One entry in a `poll(2)` set, layout-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct pollfd {
    pub fd: c_int,
    pub events: c_short,
    pub revents: c_short,
}

/// Data may be read without blocking.
pub const POLLIN: c_short = 0x001;
/// Data may be written without blocking.
pub const POLLOUT: c_short = 0x004;
/// Error condition (revents only).
pub const POLLERR: c_short = 0x008;
/// Peer hung up (revents only).
pub const POLLHUP: c_short = 0x010;
/// The fd is not open (revents only).
pub const POLLNVAL: c_short = 0x020;

pub const F_GETFL: c_int = 3;
pub const F_SETFL: c_int = 4;
pub const O_NONBLOCK: c_int = 0o4000;

/// Pages may be read.
pub const PROT_READ: c_int = 0x1;
/// Pages may be written.
pub const PROT_WRITE: c_int = 0x2;
/// Copy-on-write mapping, private to this process.
pub const MAP_PRIVATE: c_int = 0x02;
/// Not backed by a file; pages read as zero until written.
pub const MAP_ANONYMOUS: c_int = 0x20;
/// Reserve no swap for the mapping: pages are committed as they fault.
pub const MAP_NORESERVE: c_int = 0x4000;
/// What `mmap` returns on failure.
pub const MAP_FAILED: *mut c_void = !0 as *mut c_void;
/// Back the range with transparent huge pages where possible.
pub const MADV_HUGEPAGE: c_int = 14;

extern "C" {
    /// Blocks until one of `fds` is ready, `timeout` milliseconds pass
    /// (`-1` = forever), or a signal arrives. Returns the ready count,
    /// `0` on timeout, `-1` on error (`EINTR` included).
    pub fn poll(fds: *mut pollfd, nfds: nfds_t, timeout: c_int) -> c_int;
    /// Creates an anonymous pipe: `fds[0]` is the read end, `fds[1]` the
    /// write end.
    pub fn pipe(fds: *mut c_int) -> c_int;
    pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    pub fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    pub fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    pub fn close(fd: c_int) -> c_int;
    /// Marks `fd` as a passive socket with the given accept backlog.
    /// Legal on an already-listening socket (updates the backlog), which
    /// is how the server widens std's default beyond 128.
    pub fn listen(fd: c_int, backlog: c_int) -> c_int;
    /// Maps `len` bytes; returns [`MAP_FAILED`] on error.
    pub fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;
    pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    /// Advises the kernel how `[addr, addr+len)` will be used; `addr`
    /// must be page-aligned.
    pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_round_trip_and_poll_readiness() {
        let mut fds = [-1 as c_int; 2];
        assert_eq!(unsafe { pipe(fds.as_mut_ptr()) }, 0);
        let (r, w) = (fds[0], fds[1]);

        // Empty pipe: poll with a zero timeout reports nothing ready.
        let mut set = [pollfd {
            fd: r,
            events: POLLIN,
            revents: 0,
        }];
        assert_eq!(unsafe { poll(set.as_mut_ptr(), 1, 0) }, 0);

        // One byte in: POLLIN within a bounded wait.
        assert_eq!(unsafe { write(w, [0xAAu8].as_ptr(), 1) }, 1);
        set[0].revents = 0;
        assert_eq!(unsafe { poll(set.as_mut_ptr(), 1, 1000) }, 1);
        assert_ne!(set[0].revents & POLLIN, 0);

        let mut buf = [0u8; 4];
        assert_eq!(unsafe { read(r, buf.as_mut_ptr(), buf.len()) }, 1);
        assert_eq!(buf[0], 0xAA);

        unsafe {
            close(r);
            close(w);
        }
    }

    #[test]
    fn anonymous_mapping_reads_zero_and_keeps_writes() {
        let len = 4 << 20;
        let flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE;
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                flags,
                -1,
                0,
            )
        };
        assert_ne!(p, MAP_FAILED);
        // Advice may be refused (huge pages configured `never`); the
        // mapping stays usable either way.
        let _ = unsafe { madvise(p, len, MADV_HUGEPAGE) };
        let bytes = p.cast::<u8>();
        unsafe {
            assert_eq!(*bytes.add(len - 1), 0);
            *bytes.add(len - 1) = 7;
            assert_eq!(*bytes.add(len - 1), 7);
            assert_eq!(*bytes.add(len / 2), 0);
            assert_eq!(munmap(p, len), 0);
        }
    }

    #[test]
    fn fcntl_sets_nonblocking() {
        let mut fds = [-1 as c_int; 2];
        assert_eq!(unsafe { pipe(fds.as_mut_ptr()) }, 0);
        let r = fds[0];
        let flags = unsafe { fcntl(r, F_GETFL, 0) };
        assert!(flags >= 0);
        assert_eq!(unsafe { fcntl(r, F_SETFL, flags | O_NONBLOCK) }, 0);
        // Reading an empty nonblocking pipe fails immediately instead of
        // hanging this test forever.
        let mut buf = [0u8; 1];
        assert_eq!(unsafe { read(r, buf.as_mut_ptr(), 1) }, -1);
        unsafe {
            close(fds[0]);
            close(fds[1]);
        }
    }
}
