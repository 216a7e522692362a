//! Cyclic redundancy checks: CRC-8 (ATM HEC polynomial), CRC-16-CCITT-FALSE
//! and CRC-32 (IEEE 802.3). Bitwise implementations — frame sizes here are
//! tens of bytes, table lookups would be tuning for the wrong bottleneck.

/// CRC-16-CCITT-FALSE: polynomial 0x1021, init 0xFFFF, no reflection.
pub fn crc16_ccitt(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &byte in data {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 { (crc << 1) ^ 0x1021 } else { crc << 1 };
        }
    }
    crc
}

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHECK: &[u8] = b"123456789";

    #[test]
    fn crc16_check_value() {
        assert_eq!(crc16_ccitt(CHECK), 0x29B1);
    }

    #[test]
    fn crc32_check_value() {
        assert_eq!(crc32(CHECK), 0xCBF4_3926);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = CHECK.to_vec();
        let orig16 = crc16_ccitt(&data);
        let orig32 = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc16_ccitt(&data), orig16, "CRC16 missed flip {byte}.{bit}");
                assert_ne!(crc32(&data), orig32, "CRC32 missed flip {byte}.{bit}");
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn detects_swapped_bytes() {
        let a = crc16_ccitt(b"AB");
        let b = crc16_ccitt(b"BA");
        assert_ne!(a, b);
    }

    #[test]
    fn empty_inputs_defined() {
        assert_eq!(crc16_ccitt(&[]), 0xFFFF);
        assert_eq!(crc32(&[]), 0x0000_0000);
    }
}
