//! Plain-old-data marker for zero-copy message payloads.
//!
//! A message carries the sender's typed `Vec<T>`; it is read as bytes when
//! it crossed an address space as a byte buffer (`Vec<u8>`) or when the
//! receiver asks for another element type. To
//! send typed slices without a serialization framework we restrict payload
//! element types to "plain old data": `Copy` types with no padding whose any
//! bit pattern is a valid value. This mirrors what CUDA-aware MPI does with
//! device buffers: raw bytes on the wire.

/// Marker trait for types that can be reinterpreted as raw bytes.
///
/// # Safety
///
/// Implementors must guarantee that the type
/// * has no padding bytes (every byte of the representation is initialized),
/// * is valid for **any** bit pattern,
/// * has no interior mutability, pointers, or lifetimes.
pub unsafe trait Pod: Copy + Send + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for i8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for i16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for usize {}
unsafe impl Pod for isize {}
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}

// Fixed-size arrays of Pod have no padding between elements.
unsafe impl<T: Pod, const N: usize> Pod for [T; N] {}

/// View a Pod slice as its raw bytes.
pub fn as_bytes<T: Pod>(slice: &[T]) -> &[u8] {
    // SAFETY: T: Pod guarantees no padding and full initialization.
    unsafe { std::slice::from_raw_parts(slice.as_ptr() as *const u8, std::mem::size_of_val(slice)) }
}

/// Copy raw bytes into a typed vector, or `None` if `bytes.len()` is not a
/// multiple of `size_of::<T>()`.
pub fn from_bytes<T: Pod>(bytes: &[u8]) -> Option<Vec<T>> {
    let size = std::mem::size_of::<T>();
    if size != 0 && !bytes.len().is_multiple_of(size) {
        return None;
    }
    let n = bytes.len().checked_div(size).unwrap_or(0);
    let mut out = Vec::<T>::with_capacity(n);
    // SAFETY: we reserved n elements; T: Pod means any bit pattern is valid;
    // copy_nonoverlapping fills exactly n * size bytes.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr() as *mut u8, n * size);
        out.set_len(n);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_f64() {
        let xs = vec![1.0f64, -2.5, 3.25, f64::MIN_POSITIVE];
        let bytes = as_bytes(&xs);
        assert_eq!(bytes.len(), 32);
        let back: Vec<f64> = from_bytes(bytes).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn roundtrip_u32_arrays() {
        let xs = vec![[1u32, 2, 3], [4, 5, 6]];
        let back: Vec<[u32; 3]> = from_bytes(as_bytes(&xs)).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn empty_slice() {
        let xs: Vec<f32> = vec![];
        let back: Vec<f32> = from_bytes(as_bytes(&xs)).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn misaligned_length_is_refused() {
        assert_eq!(from_bytes::<f64>(&[0u8; 7]), None);
    }
}
