# Build file of the repository benchmark driver, hooked into the
# repository's own top-level CMake project so the driver links exactly the
# library flags and sources the repository ships:
#
#   cmake -S . -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_tvmec_INCLUDE=$PWD/perfbench/driver.cmake
#   cmake --build .bench_build/perfbench --target perfbench_driver
#
# CMake includes this file right after project(tvmec); the library targets
# named below are defined later in the same configure run, which is fine
# because link dependencies resolve when the build system is generated.
add_executable(perfbench_driver EXCLUDE_FROM_ALL
  "${CMAKE_CURRENT_LIST_DIR}/driver.cpp")
target_compile_features(perfbench_driver PRIVATE cxx_std_20)
target_compile_definitions(perfbench_driver PRIVATE
  PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
target_include_directories(perfbench_driver PRIVATE
  "${CMAKE_CURRENT_SOURCE_DIR}/src")
target_link_libraries(perfbench_driver PRIVATE
  tvmec_cluster tvmec_serve tvmec_storage tvmec_core tvmec_baselines
  tvmec_ec tvmec_tune tvmec_tensor tvmec_gf tvmec_build_flags)
set_target_properties(perfbench_driver PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}/perfbench")
