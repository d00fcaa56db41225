//! Hands the crate the rustflags it is compiled with, so
//! `schema::SchemaHeader` stamps the `target-cpu` the binaries were really
//! built for (`.cargo/config.toml` sets it, not the `RUSTFLAGS` variable).

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    // Cargo's `\x1f`-separated form of every rustflags source it honours
    // (`RUSTFLAGS`, `CARGO_ENCODED_RUSTFLAGS`, `build.rustflags`, …).
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    println!("cargo:rustc-env=PUF_BENCH_RUSTFLAGS={flags}");
}
