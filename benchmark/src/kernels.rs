//! Microkernels: the synchronization block and the two memory backends
//! driven directly, with no engine around them, so their host cost per
//! operation is visible on its own.

use std::hint::black_box;
use std::time::Instant;

use hwgc_memsim::{DramConfig, DramMemorySystem, MemBackend, MemBackendKind, MemConfig};
use hwgc_memsim::{MemorySystem, Port};
use hwgc_sync::SyncBlock;

pub const KERNEL_CORES: usize = 16;

/// Host nanoseconds per SB call over a scripted 16-core sequence of
/// about `ops` calls. Each simulated cycle one core takes, writes and
/// releases `scan`, the next core is refused by the single write port,
/// and the same two cores contend for one header lock.
pub fn sb_op_ns(ops: u64) -> f64 {
    const CALLS_PER_CYCLE: u64 = 8;
    let mut sb = SyncBlock::new(KERNEL_CORES);
    sb.init_pointers(0, 0);
    let cycles = ops / CALLS_PER_CYCLE;
    let started = Instant::now();
    for cycle in 0..cycles {
        let a = (cycle % KERNEL_CORES as u64) as usize;
        let b = (a + 1) % KERNEL_CORES;
        let header = 64 + (cycle % 4) as u32 * 8;
        sb.begin_cycle();
        assert!(sb.try_acquire_scan(a));
        sb.set_scan(a, cycle as u32);
        sb.release_scan(a);
        black_box(sb.try_acquire_scan(b));
        assert!(sb.try_lock_header(a, header));
        black_box(sb.try_lock_header(b, header));
        sb.unlock_header(a);
    }
    let ns = started.elapsed().as_nanos() as f64;
    let stats = black_box(sb.into_stats());
    assert_eq!(stats.acquisitions[0], cycles, "script drifted");
    ns / (cycles * CALLS_PER_CYCLE) as f64
}

/// Host nanoseconds per `tick` of backend `B` with every port of 16
/// cores kept busy: header ports walk a scattered address stream, body
/// ports stream consecutive words, completed loads are consumed at once.
pub fn tick_ns<B: MemBackend>(cfg: MemConfig, ticks: u64) -> f64 {
    let mut mem = B::new_backend(KERNEL_CORES, cfg);
    let mut next = [[0u32; 4]; KERNEL_CORES];
    for (core, ports) in next.iter_mut().enumerate() {
        for (port, addr) in ports.iter_mut().enumerate() {
            *addr = 4096 * (1 + (core * 4 + port) as u32);
        }
    }
    let started = Instant::now();
    for _ in 0..ticks {
        for (core, ports) in next.iter_mut().enumerate() {
            for port in Port::ALL {
                if port.is_load() && mem.load_ready(core, port) {
                    black_box(mem.consume_load(core, port));
                }
                if !mem.port_busy(core, port) {
                    let addr = &mut ports[port as usize];
                    let step = match port {
                        Port::HeaderLoad | Port::HeaderStore => 1031,
                        Port::BodyLoad | Port::BodyStore => 1,
                    };
                    *addr = (*addr + step) % (1 << 22);
                    mem.try_issue(core, port, *addr);
                }
            }
        }
        mem.tick();
    }
    let ns = started.elapsed().as_nanos() as f64;
    // Saturated either way: the fixed model starts ten requests a tick,
    // the DRAM model under this all-conflict stream about 0.7.
    assert!(
        black_box(mem.stats()).total_issued() > ticks / 2,
        "kernel idled"
    );
    ns / ticks as f64
}

pub fn fixed_tick_ns(ticks: u64) -> f64 {
    let cfg = MemConfig::default().with_backend(MemBackendKind::Fixed);
    tick_ns::<MemorySystem>(cfg, ticks)
}

pub fn dram_tick_ns(ticks: u64) -> f64 {
    let cfg = MemConfig::default().with_backend(MemBackendKind::Dram(DramConfig::default()));
    tick_ns::<DramMemorySystem>(cfg, ticks)
}
