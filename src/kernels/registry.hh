/**
 * @file
 * Kernel factory: build kernels from textual specs.
 *
 * A spec is "<name>" or "<name>:key=value,key=value", e.g.
 *   "daxpy:n=65536"
 *   "dgemm-blocked:n=256,block=32"
 *   "spmv-csr:rows=8192,nnz=16"
 * The grammar is strict:
 *   - a value is one or more decimal digits (no sign, no space, no
 *     suffix), so "n=-1" and "n=12abc" are errors;
 *   - only the kernel's own keys are accepted, each at most once;
 *     an omitted key takes its default;
 *   - every value must lie inside the kernel's bounds for that key
 *     (see kernelHelp() for keys and defaults), and the constructor
 *     checks the rules that tie keys together (e.g. spmv's nnz <= rows).
 * Any violation calls fatal() naming the parameter, before anything is
 * allocated: a kernel allocates its operands in Kernel::init(), so
 * createKernel() costs no memory and is how specs are validated.
 *
 * "trace:file=<path>" is the one spec outside this grammar: the path
 * may contain ',' and '=', and constructing the kernel reads the
 * trace's header.
 */

#ifndef RFL_KERNELS_REGISTRY_HH
#define RFL_KERNELS_REGISTRY_HH

#include <memory>
#include <string>
#include <vector>

#include "kernels/kernel.hh"

namespace rfl::kernels
{

/** @return a new kernel built from @p spec (see file comment). */
std::unique_ptr<Kernel> createKernel(const std::string &spec);

/** @return the names of the kernels buildable from parameters alone. */
std::vector<std::string> kernelNames();

/** @return usage line for each kernel (name, parameters, defaults). */
std::vector<std::string> kernelHelp();

} // namespace rfl::kernels

#endif // RFL_KERNELS_REGISTRY_HH
