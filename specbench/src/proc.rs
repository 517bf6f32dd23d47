//! Child processes whose peak RSS is read from their own rusage.

use std::os::unix::process::ExitStatusExt;
use std::process::{Child, ExitStatus};

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Waits for `child` to exit and returns its exit status and peak resident
/// set size in kilobytes. The child is reaped here, so `Child::wait` must
/// not be called on it afterwards.
pub fn wait_with_rusage(child: &mut Child) -> std::io::Result<(ExitStatus, u64)> {
    let pid = i32::try_from(child.id()).expect("pid fits in pid_t");
    let mut status = 0i32;
    let mut ru = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `ru` are valid, writable, properly aligned
        // locals; `RUsage` matches the kernel's `struct rusage` layout on
        // 64-bit Linux (2 × timeval of 2 × i64, then 14 × i64).
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok((
        ExitStatus::from_raw(status),
        u64::try_from(ru.maxrss).unwrap_or(0),
    ))
}
