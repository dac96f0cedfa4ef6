//! Image instantiation: an [`Image`] carries only its initialized data
//! segment, and [`Image::memory`] must rebuild exactly the memory the
//! linker wrote — every byte over `[0, mem_size)`, the heap break and
//! the stack top — for every benchmark program and for a source that
//! exercises each kind of static data.

use tickc::mir::{build_image_with_memory, Image, OptLevel};
use tickc::suite::programs::{benchmarks, BLUR_SMALL};
use tickc::tickc_core::{Config, Session};
use tickc::vm::Memory;

/// Small enough that comparing whole memories is cheap, large enough for
/// every benchmark's globals.
const MEM_SIZE: usize = 4 << 20;

/// String literals (interned and in-place), initialized arrays,
/// `double` globals and function pointers.
const STATIC_DATA: &str = r#"
char greeting[16] = "hello, world";
char *motto = "dynamic code generation";
char *again = "dynamic code generation";
int primes[8] = {2, 3, 5, 7, 11, 13, 17, 19};
long wide[3] = {-1, 4294967296, 7};
short halves[4] = {1, -2, 3, -4};
double scale = 2.5;
double weights[3] = {0.25, -1.0, 3};
int answer = 42;
int uninit[64];
int twice(int x) { return 2 * x; }
int thrice(int x) { return 3 * x; }
int apply(int which, int x) {
    int (*f)(int) = twice;
    if (which) f = thrice;
    return (*f)(x);
}
int probe(void) {
    return greeting[4] + motto[1] + primes[7] + (int)(scale * weights[2])
        + halves[3] + (int)wide[2] + answer + uninit[9];
}
"#;

fn link(src: &str, opt: OptLevel) -> (Image, Memory) {
    let prog = tickc::front::compile_unit(src).expect("valid C");
    build_image_with_memory(&prog, opt, MEM_SIZE, true).expect("links")
}

/// Asserts `image.memory()` is the linker's memory, byte for byte.
fn assert_instantiates_identically(name: &str, image: &Image, linked: &Memory) {
    let fresh = image.memory();
    assert_eq!(fresh.size(), linked.size(), "{name}: size");
    assert_eq!(fresh.stack_top(), linked.stack_top(), "{name}: stack top");
    assert_eq!(fresh.brk(), linked.brk(), "{name}: brk");
    assert_eq!(
        image.data().len() as u64,
        linked.brk() - Memory::FIRST_VALID,
        "{name}: the image carries exactly the data segment"
    );
    if fresh != *linked {
        let len = MEM_SIZE - Memory::FIRST_VALID as usize;
        let a = fresh.read_bytes(Memory::FIRST_VALID, len).unwrap();
        let b = linked.read_bytes(Memory::FIRST_VALID, len).unwrap();
        let at = a.iter().zip(b).position(|(x, y)| x != y);
        panic!(
            "{name}: instantiated memory differs from the linked one at {:?}",
            at.map(|i| i as u64 + Memory::FIRST_VALID)
        );
    }
}

#[test]
fn every_benchmark_image_instantiates_byte_identically() {
    for b in benchmarks(BLUR_SMALL) {
        for opt in [OptLevel::Naive, OptLevel::Optimizing] {
            let (image, linked) = link(b.src, opt);
            assert_instantiates_identically(b.name, &image, &linked);
        }
    }
}

#[test]
fn static_data_of_every_kind_instantiates_byte_identically() {
    let (image, linked) = link(STATIC_DATA, OptLevel::Optimizing);
    assert_instantiates_identically("static data", &image, &linked);
    // The segment holds what the program reads back.
    let mut s = Session::new(
        STATIC_DATA,
        Config {
            mem_size: MEM_SIZE,
            ..Config::default()
        },
    )
    .expect("compiles");
    assert_eq!(s.call("apply", &[0, 7]).unwrap(), 14);
    assert_eq!(s.call("apply", &[1, 7]).unwrap(), 21);
    let expect = b'o' as i64 + b'y' as i64 + 19 + 7 - 4 + 7 + 42;
    assert_eq!(s.call("probe", &[]).unwrap() as i64, expect);
}
