//! A failing `poll(2)` ends `serve_tenants` with that error.
//!
//! The failure is real, not injected: `poll(2)` refuses a descriptor set
//! larger than the open-file limit with `EINVAL`, so the test lowers the
//! limit under a server that is waiting on more sockets than the new limit
//! allows. The limit is process-wide, which is why this file holds a single
//! test.
#![cfg(target_os = "linux")]

use std::ffi::c_ulong;
use std::fs::File;
use std::io;
use std::os::unix::io::AsRawFd;
use std::thread;
use std::time::Duration;

use impress_sim::{serve_tenants, Configuration, DaemonOptions};
use impress_workloads::source::FollowPolicy;
use impress_workloads::transport::{
    ClientLink, Endpoint, Listener, TenantLimits, TenantServer, WireLink,
};

/// `struct rlimit` from `<sys/resource.h>`.
#[repr(C)]
struct RLimit {
    cur: c_ulong,
    max: c_ulong,
}

const RLIMIT_NOFILE: i32 = 7;

extern "C" {
    fn getrlimit(resource: i32, limit: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, limit: *const RLimit) -> i32;
}

fn open_file_limit() -> RLimit {
    let mut limit = RLimit { cur: 0, max: 0 };
    // SAFETY: `limit` is a valid, writable `struct rlimit`.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) }, 0);
    limit
}

fn set_open_file_limit(limit: &RLimit) {
    // SAFETY: `limit` is a valid `struct rlimit`.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, limit) }, 0);
}

#[test]
fn a_failing_poll_propagates_out_of_serve_tenants() {
    // The lowest free descriptor, held until the limit drops. Freed then, it
    // lets the server's accept(2) probe still allocate a descriptor under
    // the new limit, so only poll(2) fails.
    let spare = File::open("/dev/null").unwrap();
    let lowest_free = spare.as_raw_fd() as c_ulong;
    let path = std::env::temp_dir().join(format!("impress-poll-fail-{}.sock", std::process::id()));
    let endpoint = Endpoint::Unix(path);
    let listener = Listener::bind(&endpoint).unwrap();
    // With the limit at `lowest_free + 1`, the listener plus this many live
    // sessions is one descriptor too many for poll(2).
    let clients = lowest_free as usize + 1;
    let mut server = TenantServer::new(
        listener,
        FollowPolicy::listening(),
        TenantLimits {
            max_clients: clients,
            ..TenantLimits::default()
        },
    );
    let configuration = Configuration::unprotected();
    let options = DaemonOptions::default();
    thread::scope(|scope| {
        let served = scope.spawn(|| serve_tenants(&mut server, &configuration, &options, None));
        // A completed handshake means the session is in the readiness set.
        let links: Vec<WireLink> = (0..clients)
            .map(|_| {
                let mut link = WireLink::connect(&endpoint).unwrap();
                link.handshake(0, 0, Duration::from_secs(5)).unwrap();
                link
            })
            .collect();
        let saved = open_file_limit();
        drop(spare);
        set_open_file_limit(&RLimit {
            cur: lowest_free + 1,
            max: saved.max,
        });
        let result = served.join().expect("serve_tenants must not panic");
        set_open_file_limit(&saved);
        let err = result.expect_err("poll(2) failed, so serving must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        drop(links);
    });
}
