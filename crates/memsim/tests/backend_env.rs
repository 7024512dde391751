//! `HWGC_MEM_BACKEND` selects the backend of the process-default
//! `MemConfig`. This binary holds one test, so the environment it sets is
//! read by no other test in the process.

use hwgc_memsim::{DramConfig, MemBackendKind, MemConfig, PagePolicy};

#[test]
fn the_env_knob_sets_the_default_backend() {
    std::env::remove_var("HWGC_MEM_BACKEND");
    assert_eq!(MemConfig::default().backend, MemBackendKind::Fixed);

    std::env::set_var("HWGC_MEM_BACKEND", "dram");
    assert_eq!(
        MemConfig::default().backend,
        MemBackendKind::Dram(DramConfig::default())
    );

    std::env::set_var("HWGC_MEM_BACKEND", "dram:80ns:closed");
    let closed_80ns = DramConfig {
        page_policy: PagePolicy::Closed,
        ..DramConfig::preset("80ns").expect("preset exists")
    };
    assert_eq!(
        MemConfig::default().backend,
        MemBackendKind::Dram(closed_80ns)
    );
}
